package fluid

import (
	"math"
	"testing"

	"github.com/opera-net/opera/internal/topology"
)

func TestClosThroughput(t *testing.T) {
	// α = 4/3 ⇒ F = 3 ⇒ θ = 1/3, the paper's 3:1 baseline.
	if got := ClosThroughput(4.0 / 3.0); math.Abs(got-1.0/3.0) > 1e-12 {
		t.Fatalf("θ = %v, want 1/3", got)
	}
	// α = 4 ⇒ fully provisioned.
	if got := ClosThroughput(4); got != 1 {
		t.Fatalf("θ = %v, want 1", got)
	}
	// θ rises with α (extra capital buys capacity).
	if ClosThroughput(2) <= ClosThroughput(1) {
		t.Fatal("Clos throughput not increasing in α")
	}
}

// demand builds an n×n matrix with the given entries set.
func demandMatrix(n int, set func(m [][]float64)) [][]float64 {
	m := make([][]float64, n)
	for i := range m {
		m[i] = make([]float64, n)
	}
	set(m)
	return m
}

func TestExpanderHotRackNearFull(t *testing.T) {
	// A hot rack pair in a u=14 expander: shortest-path ECMP spreads the
	// d units over the rich 2-3 hop path diversity, so θ ≈ 1.
	e := topology.MustNewExpander(144, 10, 14, 1)
	dm := demandMatrix(144, func(m [][]float64) { m[0][1] = 10 })
	theta := ExpanderThroughput(e, dm)
	if theta < 0.6 {
		t.Fatalf("hot-rack θ = %v, want high (path diversity)", theta)
	}
}

func TestExpanderPermutationModerate(t *testing.T) {
	// Rack-level permutation at full load: multi-hop paths tax the
	// fabric; θ well below 1 but above the Clos's 1/3.
	e := topology.MustNewExpander(144, 10, 14, 1)
	dm := demandMatrix(144, func(m [][]float64) {
		for a := 0; a < 144; a++ {
			m[a][(a+72)%144] = 10
		}
	})
	theta := ExpanderThroughput(e, dm)
	if theta < 0.2 || theta > 0.9 {
		t.Fatalf("permutation θ = %v, want moderate", theta)
	}
}

func TestExpanderZeroDemand(t *testing.T) {
	e := topology.MustNewExpander(32, 4, 5, 1)
	if theta := ExpanderThroughput(e, demandMatrix(32, func([][]float64) {})); theta != 1 {
		t.Fatalf("θ = %v for zero demand", theta)
	}
}

func paperOpera(t *testing.T) *topology.Opera {
	t.Helper()
	return topology.MustNewOpera(topology.Config{
		NumRacks: 36, HostsPerRack: 6, NumSwitches: 6, Seed: 1,
	})
}

func TestOperaAllToAllNearDuty(t *testing.T) {
	// Uniform all-to-all at full load: every queue has demand for every
	// circuit, so Opera delivers ≈ its duty cycle with zero bandwidth tax
	// — the ≈4× advantage over static networks at α = 4/3 (Figure 12
	// right, "Opera all-to-all").
	o := paperOpera(t)
	n := o.NumRacks()
	perPair := float64(o.HostsPerRack()) / float64(n-1)
	dm := demandMatrix(n, func(m [][]float64) {
		for a := 0; a < n; a++ {
			for b := 0; b < n; b++ {
				if a != b {
					m[a][b] = perPair
				}
			}
		}
	})
	theta := RotorBulkThroughput(o, dm, DefaultRotorParams())
	if theta < 0.85 {
		t.Fatalf("all-to-all θ = %v, want ≈ duty cycle", theta)
	}
}

func TestOperaHotRackUsesVLB(t *testing.T) {
	o := paperOpera(t)
	n := o.NumRacks()
	dm := demandMatrix(n, func(m [][]float64) { m[0][1] = float64(o.HostsPerRack()) })
	with := RotorBulkThroughput(o, dm, DefaultRotorParams())
	without := RotorBulkThroughput(o, dm, RotorParams{WarmupCycles: 4, MeasureCycles: 8, DisableVLB: true})
	// Direct-only: the pair's circuit exists for G slices per cycle out of
	// G·N/u ⇒ u/N of the time ⇒ θ ≈ (u/N)·(T_window/T) / d... tiny.
	if without > 0.2 {
		t.Fatalf("direct-only hot rack θ = %v, want small", without)
	}
	if with < 5*without {
		t.Fatalf("VLB should lift hot-rack θ: with=%v without=%v", with, without)
	}
}

func TestOperaPermutation(t *testing.T) {
	// Rack permutation at full load: direct capacity is u/N per pair, so
	// VLB carries most bytes at 2 hops ⇒ θ ≈ u·duty/(2d) ≈ 0.5.
	o := paperOpera(t)
	n := o.NumRacks()
	dm := demandMatrix(n, func(m [][]float64) {
		for a := 0; a < n; a++ {
			m[a][(a+n/2)%n] = float64(o.HostsPerRack())
		}
	})
	theta := RotorBulkThroughput(o, dm, DefaultRotorParams())
	if theta < 0.3 || theta > 0.75 {
		t.Fatalf("permutation θ = %v, want ≈0.5", theta)
	}
}

func TestRotorNetThroughput(t *testing.T) {
	r := topology.MustNewRotorNet(topology.RotorConfig{
		NumRacks: 36, HostsPerRack: 6, Uplinks: 6, Seed: 1,
	})
	n := 36
	perPair := 6.0 / float64(n-1)
	dm := demandMatrix(n, func(m [][]float64) {
		for a := 0; a < n; a++ {
			for b := 0; b < n; b++ {
				if a != b {
					m[a][b] = perPair
				}
			}
		}
	})
	theta := RotorBulkThroughput(r, dm, DefaultRotorParams())
	if theta < 0.8 {
		t.Fatalf("RotorNet all-to-all θ = %v", theta)
	}
}

func TestOperaOverloadCapped(t *testing.T) {
	// Demands beyond capacity saturate: θ < 1 and delivered ≤ offered.
	o := paperOpera(t)
	n := o.NumRacks()
	dm := demandMatrix(n, func(m [][]float64) {
		for a := 0; a < n; a++ {
			for b := 0; b < n; b++ {
				if a != b {
					m[a][b] = 1 // n-1 ≈ 35 host-rates per rack: 6× overload
				}
			}
		}
	})
	theta := RotorBulkThroughput(o, dm, DefaultRotorParams())
	if theta >= 0.5 || theta <= 0 {
		t.Fatalf("overload θ = %v", theta)
	}
}
