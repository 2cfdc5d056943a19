// Package experiments contains one runner per table and figure of the
// Opera paper's evaluation (§5, §6 and the appendices). Each runner
// returns self-describing Tables that cmd/opera-experiments writes as CSV
// and the repository benchmarks summarize. A runner is given a Scale, or
// nothing when its artifact has one fixed size.
package experiments

import (
	"encoding/csv"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"github.com/opera-net/opera/internal/eventsim"
	"github.com/opera-net/opera/scenario"
)

// Table is a generic result table: one per plotted series or report.
type Table struct {
	Name   string // file stem, e.g. "fig04_path_length_cdf"
	Header []string
	Rows   [][]string
}

// Add appends a row, formatting each cell with %v.
func (t *Table) Add(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.6g", v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.Rows = append(t.Rows, row)
}

// CSV renders the table as CSV text. A cell holding a comma, a quote, a
// newline or a leading space is quoted, so every row keeps its width.
func (t *Table) CSV() string {
	var b strings.Builder
	w := csv.NewWriter(&b)
	w.Write(t.Header) // a strings.Builder never fails a write
	w.WriteAll(t.Rows)
	return b.String()
}

// WriteCSV writes the table to dir/<name>.csv.
func (t *Table) WriteCSV(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, t.Name+".csv"), []byte(t.CSV()), 0o644)
}

// WriteAll writes a set of tables.
func WriteAll(dir string, tables []Table) error {
	for i := range tables {
		if err := tables[i].WriteCSV(dir); err != nil {
			return err
		}
	}
	return nil
}

// Scale fixes the network sizes an experiment family runs at, and the
// packet-level figures' traffic settings that differ between the small
// and the paper-scale runs.
type Scale struct {
	Name string

	// Opera / RotorNet sizing.
	Racks        int
	HostsPerRack int
	Uplinks      int

	// Static expander sizing (cost-equivalent flavor).
	ExpRacks  int
	ExpHosts  int
	ExpDegree int

	// Folded Clos sizing.
	ClosK, ClosF int

	// Seed seeds topology, workload and fault randomness of every run.
	Seed int64

	// Loads are the Poisson FCT figures' (7, 9) offered-load fractions.
	Loads []float64
	// Window is their flow-arrival window; a run drains for up to
	// DrainFactor× longer.
	Window      eventsim.Time
	DrainFactor int
	// MaxFlowBytes caps their sampled flow sizes (0 = unlimited).
	MaxFlowBytes int64
	// Stagger spreads the static networks' shuffle arrivals in Figure 8.
	Stagger eventsim.Time
}

// Spec starts a run description on the named network at this scale: Name,
// Network, Seed and the sizing fields are set (the expander takes its
// cost-equivalent sizing), traffic and deadline are the caller's to fill.
func (s Scale) Spec(network string) scenario.Spec {
	sp := scenario.Spec{
		Name: network, Network: network, Seed: s.Seed,
		Racks: s.Racks, HostsPerRack: s.HostsPerRack, Uplinks: s.Uplinks,
		ClosK: s.ClosK, ClosF: s.ClosF,
	}
	if network == "expander" {
		sp.Racks, sp.HostsPerRack, sp.Uplinks = s.ExpRacks, s.ExpHosts, s.ExpDegree
	}
	return sp
}

// PaperScale is the 648-host family of §5: 108-rack Opera (k=12, u=6),
// 130-rack u=7 expander, 3:1 folded Clos.
func PaperScale() Scale {
	return Scale{
		Name:  "paper",
		Racks: 108, HostsPerRack: 6, Uplinks: 6,
		ExpRacks: 130, ExpHosts: 5, ExpDegree: 7,
		ClosK: 12, ClosF: 3,
		Seed:   1,
		Loads:  []float64{0.01, 0.10, 0.25, 0.30, 0.40},
		Window: 100 * eventsim.Millisecond, DrainFactor: 20,
		Stagger: 10 * eventsim.Millisecond, // §5.2
	}
}

// SmallScale is a 64-host family with the same structural ratios, sized so
// the packet-level experiments run in seconds for tests and benchmarks.
// (The folded Clos's dimensions are quantized by its radix; k=8, F=3 gives
// 192 hosts — load is defined per host, so comparisons remain aligned.)
// Flow sizes are capped at 20 MB so the heavy tail stays test-friendly.
func SmallScale() Scale {
	return Scale{
		Name:  "small",
		Racks: 16, HostsPerRack: 4, Uplinks: 4,
		ExpRacks: 16, ExpHosts: 4, ExpDegree: 5,
		ClosK: 8, ClosF: 3,
		Seed:   1,
		Loads:  []float64{0.01, 0.10, 0.25},
		Window: 20 * eventsim.Millisecond, DrainFactor: 15,
		MaxFlowBytes: 20_000_000,
		Stagger:      1 * eventsim.Millisecond,
	}
}
