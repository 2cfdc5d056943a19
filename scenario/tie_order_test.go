package scenario_test

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/opera-net/opera/internal/eventsim"
	"github.com/opera-net/opera/scenario"
)

// tieSeeds are the shuffled tie orders TestTieOrderSpread runs under.
var tieSeeds = []int64{1, 2, 3}

// TestTieOrderSpread runs TestFabricGolden's 18 specs under the engine's
// FIFO tie order and under each of tieSeeds' shuffled orders
// (eventsim.NewTieShuffleScheduler), and pins per spec the FIFO value and
// the shuffled minimum and maximum of p99 FCT, goodput and bulk NACKs
// against scenario/testdata/tie_spread.txt. Any order of equal-time events
// is a legal execution, so no run may fail. The spread is how much those
// results depend on which legal order the engine picks: the noise floor a
// result-moving change is to be read against. Regenerate (go test
// ./scenario -run TestTieOrderSpread -update) only when results move on
// purpose.
func TestTieOrderSpread(t *testing.T) {
	if testing.Short() {
		t.Skip("72 packet-level runs, ~5 s of wall time")
	}
	if raceEnabled {
		t.Skip("independent single-threaded runs, nothing the race detector checks")
	}
	specs := goldenSpecs(t)
	runs := 1 + len(tieSeeds)
	var scs []scenario.Scenario
	for _, sp := range specs {
		sc, err := sp.Scenario()
		if err != nil {
			t.Fatal(err)
		}
		scs = append(scs, sc) // FIFO: the default wheel
		for _, seed := range tieSeeds {
			sc.Scheduler = eventsim.NewTieShuffleScheduler(seed)
			scs = append(scs, sc)
		}
	}
	results, err := scenario.RunScenarios(context.Background(), scs, 0)
	if err != nil {
		t.Fatal(err)
	}

	var got strings.Builder
	for i, sp := range specs {
		rs := results[i*runs : (i+1)*runs]
		for j, r := range rs {
			if r.Err != "" {
				t.Errorf("%s seed %d, run %d of %d: %s", sp.Name, sp.Seed, j, runs, r.Err)
			}
		}
		fmt.Fprintf(&got, "%s seed=%d", sp.Name, sp.Seed)
		for _, m := range []struct {
			name string
			of   func(scenario.Result) float64
		}{
			{"p99_us", func(r scenario.Result) float64 { return r.All.P99Us }},
			{"gbps", func(r scenario.Result) float64 { return r.ThroughputGbps }},
			{"nacks", func(r scenario.Result) float64 { return float64(r.BulkNACKs) }},
		} {
			lo, hi := m.of(rs[1]), m.of(rs[1])
			for _, r := range rs[2:] {
				lo, hi = min(lo, m.of(r)), max(hi, m.of(r))
			}
			fmt.Fprintf(&got, " %s=%g [%g, %g]", m.name, m.of(rs[0]), lo, hi)
		}
		got.WriteString("\n")
	}

	golden := filepath.Join("testdata", "tie_spread.txt")
	if *update {
		if err := os.WriteFile(golden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden (regenerate with -update): %v", err)
	}
	if got.String() != string(want) {
		t.Fatalf("tie-order spread drifted from %s\n--- got ---\n%s--- want ---\n%s", golden, &got, want)
	}
}
