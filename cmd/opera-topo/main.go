// Command opera-topo inspects Opera topology realizations: slice schedule,
// path-length distributions, expander quality, direct-connectivity audit
// and forwarding-state footprint.
//
// Example:
//
//	opera-topo -racks 108 -hosts-per-rack 6 -uplinks 6
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"

	"github.com/opera-net/opera/internal/graph"
	"github.com/opera-net/opera/internal/routing"
	"github.com/opera-net/opera/internal/topology"
)

func main() {
	racks := flag.Int("racks", 108, "number of racks N")
	hostsPerRack := flag.Int("hosts-per-rack", 6, "hosts per rack d")
	uplinks := flag.Int("uplinks", 6, "uplinks / rotor switches u")
	groupSize := flag.Int("group-size", 0, "switches per stagger group (0 = default)")
	seed := flag.Int64("seed", 1, "realization seed")
	spectral := flag.Bool("spectral", false, "compute per-slice spectral gaps (slower)")
	flag.Parse()

	o, err := topology.NewOpera(topology.Config{
		NumRacks:     *racks,
		HostsPerRack: *hostsPerRack,
		NumSwitches:  *uplinks,
		GroupSize:    *groupSize,
		Seed:         *seed,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	fmt.Printf("Opera topology: N=%d racks × %d hosts = %d hosts, u=%d rotor switches\n",
		o.NumRacks(), o.HostsPerRack(), o.NumHosts(), o.Uplinks())
	fmt.Printf("  matchings per switch: %d (rotor port maps, not O(N!) crossbars)\n", o.MatchingsPerSwitch())
	fmt.Printf("  slice duration: %v (ε=%v + r=%v)\n",
		o.SliceDuration(), topology.DefaultEpsilon, topology.DefaultReconfDelay)
	fmt.Printf("  slices per cycle: %d   cycle time: %v   duty cycle: %.1f%%\n",
		o.SlicesPerCycle(), o.CycleTime(), 100*o.DutyCycle())

	// Path-length distribution across all slices.
	agg := graph.PathStats{Hist: make([]int, 8)}
	worstDiameter := 0
	for s := 0; s < o.SlicesPerCycle(); s++ {
		ps := o.SliceGraph(s).AllPairs()
		for h, c := range ps.Hist {
			for len(agg.Hist) <= h {
				agg.Hist = append(agg.Hist, 0)
			}
			agg.Hist[h] += c
		}
		agg.Pairs += ps.Pairs
		agg.Disconnected += ps.Disconnected
		if d := ps.Max(); d > worstDiameter {
			worstDiameter = d
		}
	}
	fmt.Printf("  path lengths: avg=%.2f worst=%d disconnected=%d\n",
		agg.Avg(), worstDiameter, agg.Disconnected)
	fmt.Printf("  path-length CDF:")
	for h, f := range agg.CDF() {
		if h == 0 {
			continue
		}
		fmt.Printf("  %d:%.3f", h, f)
	}
	fmt.Println()

	// Direct-connectivity audit: every pair once per cycle.
	n := o.NumRacks()
	missing := 0
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			found := false
			for s := 0; s < o.SlicesPerCycle() && !found; s++ {
				found = o.DirectSwitch(s, a, b) >= 0
			}
			if !found {
				missing++
			}
		}
	}
	fmt.Printf("  direct-connectivity audit: %d/%d pairs connected each cycle\n",
		n*(n-1)/2-missing, n*(n-1)/2)

	// Forwarding state (Table 1 model).
	fmt.Printf("  forwarding entries per ToR: %d (%.1f%% of Tofino capacity)\n",
		routing.RuleCount(n, o.Uplinks()), 100*routing.RuleUtilization(n, o.Uplinks()))

	if *spectral {
		rng := rand.New(rand.NewSource(9))
		fmt.Printf("  per-slice spectral gaps (d−λ):\n")
		for s := 0; s < o.SlicesPerCycle(); s++ {
			g := o.SliceGraph(s)
			fmt.Printf("    slice %3d: gap=%.3f\n", s, g.SpectralGap(400, rng))
		}
	}
}
