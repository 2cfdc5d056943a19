package faults

import (
	"slices"
	"testing"

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
	if clean.Loss != 0 {
		t.Fatalf("clean expander loss %v", clean.Loss)
	}
	light := ExpanderFailures(e, 0.05, 0, 2)
	if light.Loss > 0.01 {
		t.Fatalf("5%% links: loss %v (u=7 is robust)", light.Loss)
	}
	// At 75% link loss the residual ~1.75-regular graph falls apart.
	heavy := ExpanderFailures(e, 0.75, 0, 3)
	if heavy.Loss <= light.Loss {
		t.Fatalf("loss not increasing: %v vs %v", light.Loss, heavy.Loss)
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
	if res.Loss > 0.05 {
		t.Fatalf("20%% ToR failures: survivor loss %v", res.Loss)
	}
}

func TestClosFailures(t *testing.T) {
	c := topology.MustNewFoldedClos(12, 3)
	clean := ClosFailures(c, 0, 0, 1)
	if clean.Loss != 0 {
		t.Fatalf("clean Clos loss %v", clean.Loss)
	}
	if clean.MaxPath != 4 {
		t.Fatalf("clean Clos max ToR path %d, want 4", clean.MaxPath)
	}
	// A 3:1 Clos has only u=3 uplinks per ToR: moderate link failures can
	// strand ToRs — its fault tolerance is worse than the u=7 expander
	// (Appendix E).
	heavy := ClosFailures(c, 0.4, 0, 2)
	if heavy.Loss == 0 {
		t.Fatalf("40%% link failures should disconnect some Clos ToRs")
	}
	sw := ClosFailures(c, 0, 0.3, 3)
	if sw.Loss < 0 || sw.AvgPath < 2 {
		t.Fatalf("implausible switch-failure stats: %+v", sw)
	}
}

func TestClosVsExpanderVsOperaRelativeRobustness(t *testing.T) {
	// Appendix E ordering at matched failure fraction: the u=7 expander
	// tolerates link failures better than the 3:1 Clos.
	e := topology.MustNewExpander(130, 5, 7, 1)
	c := topology.MustNewFoldedClos(12, 3)
	frac := 0.25
	eLoss := ExpanderFailures(e, frac, 0, 5).Loss
	cLoss := ClosFailures(c, frac, 0, 5).Loss
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
