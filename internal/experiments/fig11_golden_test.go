package experiments

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"github.com/opera-net/opera/internal/faults"
	"github.com/opera-net/opera/internal/topology"
)

// TestFig11CanaryGolden pins the small-scale Figure 11/18 CSVs byte-for-
// byte against a checked-in golden. The failure figures are pure
// functions of (topology, seed); any drift here means a change to the
// fault model or its sampling altered published numbers — which must be
// deliberate. Regenerate with UPDATE_GOLDEN=1 go test ./internal/experiments/
// -run TestFig11CanaryGolden and review the diff.
func TestFig11CanaryGolden(t *testing.T) {
	tables, err := Fig11FaultTolerance(SmallScale(), 1)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, tb := range tables {
		b.WriteString(tb.Name)
		b.WriteByte('\n')
		b.WriteString(tb.CSV())
	}
	got := b.String()

	golden := filepath.Join("testdata", "fig11_canary_small.golden")
	if os.Getenv("UPDATE_GOLDEN") == "1" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", golden, len(got))
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden (regenerate with UPDATE_GOLDEN=1): %v", err)
	}
	if got != string(want) {
		t.Fatalf("Fig11/18 CSVs drifted from golden — fault-model change?\n--- got ---\n%s\n--- want ---\n%s",
			got, want)
	}
}

// TestFaultFiguresAverageTrials: with more than one trial, a fault-figure
// cell is the mean loss, the mean average path and the largest worst path
// of the single-seed analyses at that figure's per-trial seeds. The
// goldens run one trial and cannot show a wrong average.
func TestFaultFiguresAverageTrials(t *testing.T) {
	s := SmallScale()
	o := topology.MustNewOpera(topology.Config{
		NumRacks: s.Racks, HostsPerRack: s.HostsPerRack, NumSwitches: s.Uplinks, Seed: s.Seed,
	})
	c := topology.MustNewFoldedClos(s.ClosK, s.ClosF)
	e := topology.MustNewExpander(s.ExpRacks, s.ExpHosts, s.ExpDegree, s.Seed)
	// cell returns the mean worst-slice loss, union loss and average path
	// and the largest worst path of run's trials.
	cell := func(trials int64, run func(tr int64) faults.Result) (worst, union, avg float64, maxPath int) {
		for tr := range trials {
			r := run(tr)
			worst += r.WorstSliceLoss
			union += r.UnionLoss
			avg += r.AvgPath
			maxPath = max(maxPath, r.MaxPath)
		}
		n := float64(trials)
		return worst / n, union / n, avg / n, maxPath
	}
	check := func(got []Table, err error, want ...Table) {
		t.Helper()
		if err != nil || len(got) != len(want) {
			t.Fatalf("%d tables, err %v", len(got), err)
		}
		for i, tb := range got {
			if !slices.EqualFunc(tb.Rows, want[i].Rows, slices.Equal) {
				t.Errorf("%s:\n got %v\nwant %v", tb.Name, tb.Rows, want[i].Rows)
			}
		}
	}

	var conn, paths Table
	for slot, kind := range []string{"links", "tors", "switches"} {
		fracs := FailureFractions
		if kind == "switches" {
			fracs = SwitchFailureFractions
		}
		for _, frac := range fracs {
			var f [3]float64
			f[slot] = frac
			worst, union, avg, maxPath := cell(2, func(tr int64) faults.Result {
				return faults.OperaFailures(o, f[0], f[1], f[2], tr*31+7)
			})
			conn.Add(kind, frac, worst, union)
			paths.Add(kind, frac, avg, maxPath)
		}
	}
	got, err := Fig11FaultTolerance(s, 2)
	check(got, err, conn, paths)

	var clos, expander Table
	for _, frac := range FailureFractions {
		for _, kind := range []string{"links", "switches"} {
			fl, fs := frac, 0.0
			if kind == "switches" {
				fl, fs = 0, frac
			}
			loss, _, avg, maxPath := cell(3, func(tr int64) faults.Result {
				return faults.ClosFailures(c, fl, fs, tr*17+3)
			})
			clos.Add(kind, frac, loss, avg, maxPath)
		}
		for _, kind := range []string{"links", "tors"} {
			fl, ft := frac, 0.0
			if kind == "tors" {
				fl, ft = 0, frac
			}
			loss, _, avg, maxPath := cell(3, func(tr int64) faults.Result {
				return faults.ExpanderFailures(e, fl, ft, tr*13+5)
			})
			expander.Add(kind, frac, loss, avg, maxPath)
		}
	}
	got, err = Fig19ClosFailures(s, 3)
	check(got, err, clos)
	got, err = Fig20ExpanderFailures(s, 3)
	check(got, err, expander)
}
