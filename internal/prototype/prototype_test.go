package prototype

import (
	"testing"

	"github.com/opera-net/opera/internal/topology"
)

func TestFigure13Shapes(t *testing.T) {
	without, with, err := Figure13(20000)
	if err != nil {
		t.Fatal(err)
	}
	if without.N() < 10000 || with.N() < 10000 {
		t.Fatalf("sample sizes %d/%d", without.N(), with.N())
	}
	// §6.1: without bulk, RTT is path-length dominated — up to ~9 µs each
	// way plus host overhead: median in the 5–20 µs band.
	medW := without.Median()
	if medW < 4 || medW > 20 {
		t.Fatalf("no-bulk median RTT = %vµs", medW)
	}
	// With bulk, queueing behind MTUs adds up to ~19.2 µs per RTT: the
	// distribution shifts right and smooths (Figure 13).
	if with.Median() <= without.Median() {
		t.Fatalf("bulk did not increase RTT: %v <= %v", with.Median(), without.Median())
	}
	shift := with.Percentile(99) - without.Percentile(99)
	if shift < 2 || shift > 25 {
		t.Fatalf("99p shift = %vµs, want within the 16×1.2µs budget", shift)
	}
	// Upper bound sanity: max RTT ≈ 2×(3 hops×3µs) + 16×1.2µs + overhead.
	if max := with.Max(); max > 50 {
		t.Fatalf("max RTT = %vµs, implausible", max)
	}
}

func TestTestbedDeterminism(t *testing.T) {
	a, _, err := Figure13(20000)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := Figure13(20000)
	if err != nil {
		t.Fatal(err)
	}
	if a.Mean() != b.Mean() {
		t.Fatal("prototype runs are not deterministic")
	}
}

func TestTestbedTopologyMatchesFigure5(t *testing.T) {
	topo, err := topology.NewOpera(testbed)
	if err != nil {
		t.Fatal(err)
	}
	if topo.NumRacks() != 8 || topo.Uplinks() != 4 {
		t.Fatalf("testbed is %d ToRs × %d switches, want 8×4", topo.NumRacks(), topo.Uplinks())
	}
	if topo.MatchingsPerSwitch() != 2 {
		t.Fatalf("matchings per switch = %d, want 2 (A and B)", topo.MatchingsPerSwitch())
	}
}

// The per-point blocking is derived from the MTU and the line rate, and is
// the 1.2 µs §6.1's testbed timings were written with.
func TestMTUSerializationIs1200ns(t *testing.T) {
	if mtuSerializationUs != 1.2 {
		t.Fatalf("mtuSerializationUs = %v, want 1.2", mtuSerializationUs)
	}
}
