package scenario_test

import (
	"context"
	"math"
	"testing"

	"github.com/opera-net/opera/internal/eventsim"
	"github.com/opera-net/opera/internal/sim"
	"github.com/opera-net/opera/internal/stats"
	"github.com/opera-net/opera/scenario"
)

const sketchAlpha = 0.01

// fig7Cell is the (opera, load 0.25) cell of the Figure 7 sweep — the
// Datamining Poisson workload at DefaultSimOptions sizing and the figure
// seed — with the retention policy under test. The workload is tagged so
// the per-tag sketch path is exercised alongside the per-class one.
// Datamining's multi-megabyte mean flow keeps arrival counts modest (the
// figure buckets for the same reason); the bracket assertions below hold
// at any N, and the statistical weight comes from the 50 000-sample
// sketch unit tests plus the root package's 100k-flow soak.
func fig7Cell(retention scenario.RetentionSpec) scenario.Scenario {
	return mustScenario(scenario.Spec{
		Name:    "fig7-dm",
		Network: "opera",
		Seed:    1, // the figure seed (DefaultSimOptions)
		Racks:   16, HostsPerRack: 4, Uplinks: 4,
		Retention: retention,
		Sources: []scenario.SourceSpec{{Type: "poisson", Dist: "datamining", Load: 0.25,
			Window: 20 * eventsim.Millisecond, MaxFlowBytes: 20_000_000, Tag: "dm"}},
		Duration: 300 * eventsim.Millisecond,
	})
}

// checkWithinBound asserts the sketch guarantee against the exact sample:
// the estimate must lie within ±alpha of the order statistics bracketing
// the type-7 rank of percentile p.
func checkWithinBound(t *testing.T, what string, got float64, exact *stats.Sample, p float64) {
	t.Helper()
	sorted := exact.Values()
	h := p / 100 * float64(len(sorted)-1)
	lo := sorted[int(math.Floor(h))]
	hi := sorted[int(math.Ceil(h))]
	if got < lo*(1-sketchAlpha)-1e-9 || got > hi*(1+sketchAlpha)+1e-9 {
		t.Errorf("%s p%v = %v outside sketch bound [%v, %v] (exact %v)",
			what, p, got, lo*(1-sketchAlpha), hi*(1+sketchAlpha), exact.Percentile(p))
	}
}

// RetainSketch reproduces the Fig 7 workload's tail statistics within the
// sketch's pinned error bound of the exact RetainAll values, while
// retaining no flows.
func TestRetainSketchMatchesExactOnFig7Workload(t *testing.T) {
	if testing.Short() {
		t.Skip("packet-level accuracy run in -short mode")
	}
	if raceEnabled {
		t.Skip("numeric accuracy check, nothing concurrent — skipped under -race")
	}
	// Exact side: default retention, raw flows from the finished cluster.
	cl, exactRes := scenario.Collect(fig7Cell(scenario.RetentionSpec{}))
	if exactRes.Err != "" {
		t.Fatal(exactRes.Err)
	}
	exactAll := cl.Metrics().FCTSample(nil)
	if exactAll.N() < 30 {
		t.Fatalf("Fig 7 cell produced only %d flows; accuracy check needs a spread of FCTs", exactAll.N())
	}

	sketch := scenario.RetentionSpec{Sketch: true, Alpha: sketchAlpha}
	skRes := scenario.Run(fig7Cell(sketch))
	if skRes.Err != "" {
		t.Fatal(skRes.Err)
	}
	if skRes.Telemetry == nil {
		t.Fatal("RetainSketch Result should carry a TelemetrySummary")
	}
	if skRes.Telemetry.ErrorBound != sketchAlpha {
		t.Fatalf("ErrorBound = %v, want %v", skRes.Telemetry.ErrorBound, sketchAlpha)
	}

	// Same workload, same seeds, same arrivals: counts agree exactly.
	if skRes.FlowsTotal != exactRes.FlowsTotal || skRes.FlowsDone != exactRes.FlowsDone {
		t.Fatalf("flow counts diverge: sketch (%d/%d) vs exact (%d/%d)",
			skRes.FlowsDone, skRes.FlowsTotal, exactRes.FlowsDone, exactRes.FlowsTotal)
	}
	if skRes.All.N != exactAll.N() {
		t.Fatalf("All.N = %d, want %d", skRes.All.N, exactAll.N())
	}
	// Mean and throughput are exact in both modes (modulo float summation
	// order), as is the bandwidth tax.
	if rel := math.Abs(skRes.All.MeanUs-exactAll.Mean()) / exactAll.Mean(); rel > 1e-9 {
		t.Fatalf("mean diverges by %v relative", rel)
	}
	if rel := math.Abs(skRes.ThroughputGbps-exactRes.ThroughputGbps) / exactRes.ThroughputGbps; rel > 1e-9 {
		t.Fatalf("throughput diverges by %v relative", rel)
	}
	if skRes.AggregateTax != exactRes.AggregateTax {
		t.Fatalf("tax diverges: %v vs %v", skRes.AggregateTax, exactRes.AggregateTax)
	}

	checkWithinBound(t, "all", skRes.All.P50Us, exactAll, 50)
	checkWithinBound(t, "all", skRes.All.P99Us, exactAll, 99)
	checkWithinBound(t, "all", skRes.Telemetry.All.P999Us, exactAll, 99.9)
	if skRes.All.MaxUs != exactAll.Max() {
		t.Fatalf("max should be exact: %v vs %v", skRes.All.MaxUs, exactAll.Max())
	}

	// Per-tag sketches see the same flows (everything is tagged "dm").
	dm, ok := skRes.ByTag["dm"]
	if !ok {
		t.Fatal("sketch retention lost the per-tag breakdown")
	}
	if dm.FlowsTotal != exactRes.FlowsTotal || dm.FCT.N != exactAll.N() {
		t.Fatalf("tag counts diverge: %d/%d vs %d/%d", dm.FCT.N, dm.FlowsTotal, exactAll.N(), exactRes.FlowsTotal)
	}
	checkWithinBound(t, "tag dm", dm.FCT.P99Us, exactAll, 99)

	// And the flows really were released.
	skCl, _ := scenario.Collect(fig7Cell(sketch))
	if n := len(skCl.Metrics().Flows()); n != 0 {
		t.Fatalf("RetainSketch retained %d flows", n)
	}
}

// Sketch-retention sweeps stay deterministic across parallelism — the
// Result (including the TelemetrySummary and its windowed series) is a
// pure function of the Scenario value.
func TestRetainSketchParallelDeterminism(t *testing.T) {
	mk := func() []scenario.Scenario {
		var scs []scenario.Scenario
		for _, network := range []string{"opera", "expander"} {
			for _, load := range []float64{0.02, 0.05} {
				scs = append(scs, mustScenario(scenario.Spec{
					Name: "sk", Network: network, Seed: 11,
					Retention: scenario.RetentionSpec{Sketch: true},
					Sources: []scenario.SourceSpec{{Type: "poisson", Dist: "websearch", Load: load,
						Window: 4 * eventsim.Millisecond, MaxFlowBytes: 1_000_000, Tag: "ws"}},
					Duration: 60 * eventsim.Millisecond,
				}))
			}
		}
		return scs
	}
	seq, err := scenario.RunScenarios(context.Background(), mk(), 1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := scenario.RunScenarios(context.Background(), mk(), 8)
	if err != nil {
		t.Fatal(err)
	}
	for i := range seq {
		if seq[i].Err != "" {
			t.Fatalf("scenario %d: %s", i, seq[i].Err)
		}
		if !seq[i].Equal(par[i]) {
			t.Fatalf("scenario %d diverges across parallelism:\nP1: %+v\nP8: %+v", i, seq[i], par[i])
		}
		if seq[i].Telemetry == nil || seq[i].Telemetry.All.N == 0 {
			t.Fatalf("scenario %d: empty telemetry summary", i)
		}
	}
}

// Default retention carries no telemetry summary and keeps Result shape
// unchanged.
func TestRetainAllHasNoTelemetry(t *testing.T) {
	res := scenario.Run(mustScenario(scenario.Spec{
		Name: "plain", Network: "opera", Seed: 3,
		Sources:  []scenario.SourceSpec{{Type: "shuffle", Participants: 8, FlowBytes: 50_000, Stagger: eventsim.Millisecond}},
		Duration: 500 * eventsim.Millisecond,
	}))
	if res.Err != "" {
		t.Fatal(res.Err)
	}
	if res.Telemetry != nil {
		t.Fatal("RetainAll Result should not carry telemetry")
	}
}

// Fault events apply to RotorNet and compose with sketch retention.
func TestFaultEventsOnRotorNet(t *testing.T) {
	res := scenario.Run(mustScenario(scenario.Spec{
		Name: "rotor-faulted", Network: "rotornet", Seed: 5,
		Racks: 8, HostsPerRack: 2, Uplinks: 4,
		Retention: scenario.RetentionSpec{Sketch: true},
		Sources:   []scenario.SourceSpec{{Type: "shuffle", Participants: 8, FlowBytes: 100_000, Stagger: 100 * eventsim.Microsecond, Bulk: true}},
		Events: []scenario.EventSpec{
			{Target: sim.FlatLink(2, 1)},
			{At: 5 * eventsim.Millisecond, Op: "recover", Target: sim.FlatLink(2, 1)},
		},
		Duration: 2000 * eventsim.Millisecond,
	}))
	if res.Err != "" {
		t.Fatalf("fault events on rotornet should be supported: %s", res.Err)
	}
	if !res.Completed {
		t.Fatalf("faulted rotornet shuffle incomplete: %d/%d", res.FlowsDone, res.FlowsTotal)
	}
	if res.Telemetry == nil || res.Bulk.N != res.FlowsDone {
		t.Fatalf("telemetry summary missing or inconsistent: %+v", res.Telemetry)
	}
}
