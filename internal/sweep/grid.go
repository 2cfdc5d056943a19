package sweep

import (
	"fmt"

	"github.com/opera-net/opera/internal/eventsim"
	"github.com/opera-net/opera/internal/experiments"
	"github.com/opera-net/opera/scenario"
)

// Grid declares a sweep: the cross product of Networks × Loads, each
// cell replicated Replicas times at consecutive seeds (Seed, Seed+1, …)
// so per-cell confidence intervals can be reported. Expand turns it into
// the flat spec list the coordinator shards; the JSON tags make a Grid
// file (opera-sweep -grid) a one-to-one mirror of this struct.
type Grid struct {
	// Networks are architecture names ("opera", "expander", …); empty
	// defaults to the three-way paper comparison set.
	Networks []string `json:"networks"`
	// Workload picks the flow-size distribution (scenario.SourceSpec.Dist):
	// "datamining" (default), "websearch" or "hadoop".
	Workload string `json:"workload"`
	// Loads are offered-load fractions of aggregate host bandwidth.
	Loads []float64 `json:"loads"`
	// Scale is "small" (64-host test family, default) or "paper" (§5's
	// 648-host family).
	Scale string `json:"scale"`
	// DurationMs is the flow-arrival window in milliseconds of virtual
	// time (default 20); the run drains for up to DrainFactor× longer.
	DurationMs  float64 `json:"duration_ms"`
	DrainFactor int     `json:"drain_factor"`
	// MaxFlowBytes caps sampled flow sizes; 0 defaults to 20 MB at small
	// scale (keeping the heavy tail test-friendly) and unlimited at
	// paper scale.
	MaxFlowBytes int64 `json:"max_flow_bytes"`
	// Seed is the base seed; replica r of every cell runs at Seed+r.
	Seed     int64 `json:"seed"`
	Replicas int   `json:"replicas"`
	// Sketch switches runs to streaming sketch retention, at relative
	// error Alpha (0 = the telemetry default 1%), and adds the pooled
	// sweep_telemetry table.
	Sketch bool    `json:"sketch"`
	Alpha  float64 `json:"alpha"`
	// Events is a fault schedule applied to every cell (the failure
	// figures' sweeps), serialized with the specs to worker shards.
	Events []scenario.EventSpec `json:"events,omitempty"`
}

// Cell is one (network, load) point of the grid and the spec indices of
// its seed replicas, in replica order.
type Cell struct {
	Network string
	Load    float64
	// Indices are the cell's spec indices, ascending — pooled collector
	// merges walk them in this order so merged state is reproducible.
	Indices []int
}

// withDefaults fills unset Grid fields; idempotent.
func (g Grid) withDefaults() Grid {
	if len(g.Networks) == 0 {
		g.Networks = []string{"opera", "expander", "foldedclos"}
	}
	if g.Workload == "" {
		g.Workload = "datamining"
	}
	if len(g.Loads) == 0 {
		g.Loads = []float64{0.01, 0.10, 0.25}
	}
	if g.Scale == "" {
		g.Scale = "small"
	}
	if g.DurationMs == 0 {
		g.DurationMs = 20
	}
	if g.DrainFactor == 0 {
		g.DrainFactor = 15
	}
	if g.MaxFlowBytes == 0 && g.Scale == "small" {
		g.MaxFlowBytes = 20_000_000
	}
	if g.Seed == 0 {
		g.Seed = 1
	}
	if g.Replicas <= 0 {
		g.Replicas = 1
	}
	return g
}

// Expand resolves the grid into the flat spec list a sweep runs plus the
// cell structure the report aggregates over. Expansion order — networks
// outer, loads inner, replicas innermost — is fixed, so equal Grids
// expand to equal spec lists in every process. Every cell is validated the
// one way a run description is: by resolving it (Spec.Scenario).
func (g Grid) Expand() ([]scenario.Spec, []Cell, error) {
	g = g.withDefaults()
	var scale experiments.Scale
	switch g.Scale {
	case "small":
		scale = experiments.SmallScale()
	case "paper":
		scale = experiments.PaperScale()
	default:
		return nil, nil, fmt.Errorf("sweep: unknown scale %q (want small or paper)", g.Scale)
	}
	window := eventsim.Time(g.DurationMs * float64(eventsim.Millisecond))

	var specs []scenario.Spec
	var cells []Cell
	for _, net := range g.Networks {
		for _, load := range g.Loads {
			cell := Cell{Network: net, Load: load}
			for r := 0; r < g.Replicas; r++ {
				seed := g.Seed + int64(r)
				sp := scale.Spec(net)
				sp.Name = fmt.Sprintf("%s-load%g-seed%d", net, load, seed)
				sp.Seed = seed
				sp.Duration = window * eventsim.Time(g.DrainFactor)
				sp.Sources = []scenario.SourceSpec{{
					Type: "poisson", Dist: g.Workload, Load: load,
					Window: window, MaxFlowBytes: g.MaxFlowBytes,
				}}
				if g.Sketch {
					sp.Retention = scenario.RetentionSpec{Sketch: true, Alpha: g.Alpha}
				}
				sp.Events = g.Events
				if _, err := sp.Scenario(); err != nil {
					return nil, nil, err
				}
				cell.Indices = append(cell.Indices, len(specs))
				specs = append(specs, sp)
			}
			cells = append(cells, cell)
		}
	}
	return specs, cells, nil
}
