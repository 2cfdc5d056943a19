package faults

import (
	"slices"
	"testing"

	"github.com/opera-net/opera/internal/graph"
	"github.com/opera-net/opera/internal/topology"
)

func smallOpera(t *testing.T) *topology.Opera {
	t.Helper()
	return topology.MustNewOpera(topology.Config{
		NumRacks: 24, HostsPerRack: 4, NumSwitches: 4, Seed: 1,
	})
}

func TestOperaNoFailures(t *testing.T) {
	o := smallOpera(t)
	res := OperaFailures(o, 0, 0, 0, 1)
	if res.WorstSliceLoss != 0 || res.UnionLoss != 0 {
		t.Fatalf("loss without failures: %+v", res)
	}
	if res.AvgPath < 1 || res.MaxPath < 2 {
		t.Fatalf("implausible path stats: %+v", res)
	}
}

func TestOperaSmallFailuresNoLoss(t *testing.T) {
	// §5.5: Opera withstands a few percent of link failures with no
	// connectivity loss.
	o := smallOpera(t)
	res := OperaFailures(o, 0.02, 0, 0, 2)
	if res.WorstSliceLoss > 0.01 {
		t.Fatalf("2%% links: worst-slice loss %v", res.WorstSliceLoss)
	}
}

func TestOperaFailureMonotonicity(t *testing.T) {
	o := smallOpera(t)
	none := OperaFailures(o, 0, 0, 0, 3)
	low := OperaFailures(o, 0.05, 0, 0, 3)
	high := OperaFailures(o, 0.4, 0, 0, 3)
	if high.UnionLoss < low.UnionLoss {
		t.Fatalf("loss not monotone: 5%%=%v 40%%=%v", low.UnionLoss, high.UnionLoss)
	}
	if high.UnionLoss < high.WorstSliceLoss {
		t.Fatalf("union (%v) < worst slice (%v)", high.UnionLoss, high.WorstSliceLoss)
	}
	// In the low-loss regime failures stretch paths (Figure 18). At high
	// loss the finite-path average is survivorship-biased, so it is not
	// compared.
	if low.AvgPath < none.AvgPath {
		t.Fatalf("path stretch decreased: %v → %v", none.AvgPath, low.AvgPath)
	}
}

func TestOperaSwitchFailures(t *testing.T) {
	// 6 rotor switches, as in the paper: tolerating 1 failed switch leaves
	// u-1-1 = 4 active matchings in the worst slice — still an expander.
	// (Figure 11 shows the 108-rack network tolerates 2 of 6.)
	o := topology.MustNewOpera(topology.Config{
		NumRacks: 36, HostsPerRack: 6, NumSwitches: 6, Seed: 1,
	})
	res := OperaFailures(o, 0, 0, 1.0/6.0, 4)
	if res.UnionLoss > 0.05 {
		t.Fatalf("1/6 switches: loss %v", res.UnionLoss)
	}
	// Losing 4 of 6 leaves 1-2 matchings per slice: mass disconnection.
	res = OperaFailures(o, 0, 0, 4.0/6.0, 4)
	if res.UnionLoss < 0.2 {
		t.Fatalf("4/6 switches: loss only %v", res.UnionLoss)
	}
}

func TestOperaToRFailures(t *testing.T) {
	o := smallOpera(t)
	res := OperaFailures(o, 0, 0.1, 0, 5)
	// Loss measured among survivors only; small ToR failure fractions
	// should leave survivors connected.
	if res.WorstSliceLoss > 0.05 {
		t.Fatalf("10%% ToRs: worst-slice loss %v among survivors", res.WorstSliceLoss)
	}
}

func TestOperaAllToRsDown(t *testing.T) {
	o := smallOpera(t)
	res := OperaFailures(o, 0, 1.0, 0, 6)
	if res.WorstSliceLoss != 0 || res.UnionLoss != 0 || res.AvgPath != 0 {
		t.Fatalf("degenerate failure should zero out: %+v", res)
	}
}

func TestExpanderFailures(t *testing.T) {
	e := topology.MustNewExpander(50, 4, 7, 1)
	clean := ExpanderFailures(e, 0, 0, 1)
	if clean.WorstSliceLoss != 0 {
		t.Fatalf("clean expander loss %v", clean.WorstSliceLoss)
	}
	light := ExpanderFailures(e, 0.05, 0, 2)
	if light.WorstSliceLoss > 0.01 {
		t.Fatalf("5%% links: loss %v (u=7 is robust)", light.WorstSliceLoss)
	}
	// At 75% link loss the residual ~1.75-regular graph falls apart.
	heavy := ExpanderFailures(e, 0.75, 0, 3)
	if heavy.WorstSliceLoss <= light.WorstSliceLoss {
		t.Fatalf("loss not increasing: %v vs %v", light.WorstSliceLoss, heavy.WorstSliceLoss)
	}
	// A static fabric is a one-slice schedule.
	if heavy.UnionLoss != heavy.WorstSliceLoss {
		t.Fatalf("union loss %v, worst slice %v", heavy.UnionLoss, heavy.WorstSliceLoss)
	}
	// Moderate failures stretch paths without disconnecting.
	stretched := ExpanderFailures(e, 0.3, 0, 5)
	if stretched.AvgPath < clean.AvgPath {
		t.Fatalf("no path stretch under failures: %v vs %v", stretched.AvgPath, clean.AvgPath)
	}
}

func TestExpanderToRFailures(t *testing.T) {
	e := topology.MustNewExpander(50, 4, 7, 1)
	res := ExpanderFailures(e, 0, 0.2, 4)
	if res.WorstSliceLoss > 0.05 {
		t.Fatalf("20%% ToR failures: survivor loss %v", res.WorstSliceLoss)
	}
}

func TestClosFailures(t *testing.T) {
	c := topology.MustNewFoldedClos(12, 3)
	clean := ClosFailures(c, 0, 0, 1)
	if clean.WorstSliceLoss != 0 {
		t.Fatalf("clean Clos loss %v", clean.WorstSliceLoss)
	}
	if clean.MaxPath != 4 {
		t.Fatalf("clean Clos max ToR path %d, want 4", clean.MaxPath)
	}
	// A 3:1 Clos has only u=3 uplinks per ToR: moderate link failures can
	// strand ToRs — its fault tolerance is worse than the u=7 expander
	// (Appendix E).
	heavy := ClosFailures(c, 0.4, 0, 2)
	if heavy.WorstSliceLoss == 0 {
		t.Fatalf("40%% link failures should disconnect some Clos ToRs")
	}
	sw := ClosFailures(c, 0, 0.3, 3)
	if sw.WorstSliceLoss < 0 || sw.AvgPath < 2 {
		t.Fatalf("implausible switch-failure stats: %+v", sw)
	}
}

func TestClosVsExpanderVsOperaRelativeRobustness(t *testing.T) {
	// Appendix E ordering at matched failure fraction: the u=7 expander
	// tolerates link failures better than the 3:1 Clos.
	e := topology.MustNewExpander(130, 5, 7, 1)
	c := topology.MustNewFoldedClos(12, 3)
	frac := 0.25
	eLoss := ExpanderFailures(e, frac, 0, 5).WorstSliceLoss
	cLoss := ClosFailures(c, frac, 0, 5).WorstSliceLoss
	if eLoss > cLoss {
		t.Fatalf("expander (%v) should beat Clos (%v) at %v link failures", eLoss, cLoss, frac)
	}
}

// The static failure analyses mask a copy: the topology they are handed
// keeps every link, so a second analysis of it starts whole.
func TestStaticFailuresLeaveTopologyWhole(t *testing.T) {
	e := topology.MustNewExpander(32, 4, 5, 1)
	before := make([][]int32, len(e.Adj))
	for v, row := range e.Adj {
		before[v] = slices.Clone(row)
	}
	first := ExpanderFailures(e, 0.3, 0.2, 7)
	if !slices.EqualFunc(e.Adj, before, slices.Equal) {
		t.Fatal("ExpanderFailures changed the topology's table")
	}
	if again := ExpanderFailures(e, 0.3, 0.2, 7); again != first {
		t.Fatalf("second analysis %+v differs from first %+v", again, first)
	}
}

// TestSamplingCountsAndProbabilities pins how each fabric draws its
// failures, which the package doc states. A count fails exactly round(f·n)
// of n elements: at f·n = 0.45 no seed fails anything and at 0.55 every
// seed fails one. A probability fails each element independently, so at
// f·n = 0.45 some seeds fail something. A failure shows as a Result that
// differs from the clean one.
func TestSamplingCountsAndProbabilities(t *testing.T) {
	o := smallOpera(t)
	e := topology.MustNewExpander(50, 4, 7, 1)
	// One uplink per ToR and one agg per pod: a lost ToR link or agg
	// strands ToRs, so such a failure always shows.
	c := topology.MustNewFoldedClos(4, 3)
	links := func(adj [][]int32) (m int) {
		graph.Edges(adj, func(_, _, _, _ int) { m++ })
		return m
	}
	type fabric struct {
		name string
		n    int // elements of the kind failed
		run  func(f float64, seed int64) Result
	}
	// changed counts the seeds at which failing f·n of n elements moves
	// the result.
	changed := func(fab fabric, fn float64) (k int) {
		for seed := int64(1); seed <= 16; seed++ {
			if fab.run(fn/float64(fab.n), seed) != fab.run(0, seed) {
				k++
			}
		}
		return k
	}
	for _, fab := range []fabric{
		{"opera links", o.NumRacks() * o.Uplinks(), func(f float64, seed int64) Result { return OperaFailures(o, f, 0, 0, seed) }},
		{"opera ToRs", o.NumRacks(), func(f float64, seed int64) Result { return OperaFailures(o, 0, f, 0, seed) }},
		{"opera switches", o.Uplinks(), func(f float64, seed int64) Result { return OperaFailures(o, 0, 0, f, seed) }},
		{"expander ToRs", e.NumRacks, func(f float64, seed int64) Result { return ExpanderFailures(e, 0, f, seed) }},
	} {
		if k := changed(fab, 0.45); k != 0 {
			t.Errorf("%s: round(0.45) = 0 failures moved %d of 16 seeds", fab.name, k)
		}
		if k := changed(fab, 0.55); k != 16 {
			t.Errorf("%s: round(0.55) = 1 failure moved only %d of 16 seeds", fab.name, k)
		}
	}
	for _, fab := range []fabric{
		{"expander links", links(e.Adj), func(f float64, seed int64) Result { return ExpanderFailures(e, f, 0, seed) }},
		{"clos links", links(c.RackGraph()), func(f float64, seed int64) Result { return ClosFailures(c, f, 0, seed) }},
		{"clos switches", c.NumAgg + c.NumCore, func(f float64, seed int64) Result { return ClosFailures(c, 0, f, seed) }},
	} {
		if changed(fab, 0.45) == 0 {
			t.Errorf("%s: probability 0.45/n per element failed nothing in 16 seeds", fab.name)
		}
	}
}
