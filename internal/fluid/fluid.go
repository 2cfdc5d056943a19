// Package fluid provides flow-level (fluid) steady-state throughput models
// for the cost-normalized comparisons of §5.6 (Figures 12 and 15), where
// the 5,184-host networks make packet-level simulation impractical — the
// paper's own figures report steady-state throughput, not packet dynamics.
//
//   - Folded Clos: throughput is oversubscription-limited and traffic
//     pattern independent: θ = min(1, 1/F(α)).
//   - Static expander: demands are routed over all shortest paths with
//     equal splitting (ECMP spraying, as the paper's NDP expander does) and
//     θ = min(1, 1/max-link-load).
//   - Opera / RotorNet: a slice-granularity RotorLB simulation — direct
//     service first, then two-hop VLB into spare circuit capacity — with
//     per-rack egress/ingress limits; θ is the delivered fraction at
//     steady state.
package fluid

import (
	"math"

	"github.com/opera-net/opera/internal/cost"
	"github.com/opera-net/opera/internal/graph"
	"github.com/opera-net/opera/internal/topology"
)

// ClosThroughput returns per-active-host throughput of the cost-equivalent
// folded Clos at premium α: the oversubscription bound, independent of
// traffic pattern (§5.6).
func ClosThroughput(alpha float64) float64 {
	f := cost.Oversubscription(alpha)
	return math.Min(1, 1/f)
}

// ExpanderThroughput returns per-active-host throughput of a static
// expander for the given rack-level demand matrix (entries in units of
// host line rate), under the routing the packet-level expander baseline
// uses: the source ToR sprays each demand equally across all of its
// fabric uplinks (first-hop diversity, as NDP spraying provides), after
// which packets follow shortest paths with equal-cost splitting at every
// hop. The answer is min(1, 1/max directed-link load), each fabric link
// having one host-rate of capacity per direction.
func ExpanderThroughput(e *topology.Expander, demand [][]float64) float64 {
	n := e.NumRacks
	var bfs graph.BitBFS
	dist := bfs.Distances(e.Adj)
	load := make(map[int]float64, n*e.Degree) // directed link loads, key x*n+y

	var total float64
	frac := make([]float64, n)
	// walk propagates a unit of flow from src toward dst — sprayed across
	// src's uplinks, then down the shortest-path DAG with equal splitting —
	// and reports the share of first each directed link (key x*n+y)
	// carries. transpose flips each link, which routes the geometrically
	// identical reverse direction: splitting each demand half forward,
	// half reversed models balanced first- AND last-hop diversity, as
	// K-shortest-path multipath achieves in practice [29].
	walk := func(src, dst int, first float64, transpose bool, emit func(link int, share float64)) {
		dt := dist[dst]
		for i := range frac {
			frac[i] = 0
		}
		add := func(x, y int, share float64) {
			if transpose {
				x, y = y, x
			}
			emit(x*n+y, share)
		}
		ns := e.Adj[src]
		share := first / float64(len(ns))
		maxLevel := 0
		for _, y := range ns {
			add(src, int(y), share)
			frac[y] += share
			if dt[y] > maxLevel {
				maxLevel = dt[y]
			}
		}
		for lvl := maxLevel; lvl >= 1; lvl-- {
			for x := 0; x < n; x++ {
				fx := frac[x]
				if fx == 0 || dt[x] != lvl || x == dst {
					continue
				}
				frac[x] = 0
				var hops []int32
				for _, y := range e.Adj[x] {
					if dt[y] == lvl-1 {
						hops = append(hops, y)
					}
				}
				if len(hops) == 0 {
					continue
				}
				hshare := fx / float64(len(hops))
				for _, y := range hops {
					add(x, int(y), hshare)
					frac[y] += hshare
				}
			}
		}
	}
	type pairFlow struct {
		s, t int
		d    float64
	}
	var pairs []pairFlow
	var half float64 // of the demand being routed
	addLoad := func(link int, share float64) { load[link] += half * share }
	for s := 0; s < n; s++ {
		for t := 0; t < n; t++ {
			d := demand[s][t]
			if d == 0 || s == t || dist[s][t] == graph.Unreachable {
				continue
			}
			total += d
			pairs = append(pairs, pairFlow{s, t, d})
			half = d / 2
			walk(s, t, 1, false, addLoad)
			walk(t, s, 1, true, addLoad)
		}
	}
	if total == 0 {
		return 1
	}
	// Per-flow bottleneck: a flow's rate is limited by the most loaded
	// link carrying a meaningful share of it (max-min transports throttle
	// only the flows crossing a hotspot, not the whole pattern). Aggregate
	// throughput is the demand-weighted mean of per-flow rates.
	var delivered float64
	for _, pf := range pairs {
		marks := make(map[int]float64)
		mark := func(link int, share float64) { marks[link] += share }
		walk(pf.s, pf.t, 0.5, false, mark)
		walk(pf.t, pf.s, 0.5, true, mark)
		var bottleneck float64
		for link, share := range marks {
			if share < 0.05 {
				continue // a sliver of the flow; max-min reroutes around it
			}
			if l := load[link]; l > bottleneck {
				bottleneck = l
			}
		}
		rate := 1.0
		if bottleneck > 1 {
			rate = 1 / bottleneck
		}
		delivered += pf.d * rate
	}
	return math.Min(1, delivered/total)
}

// The RotorLB fluid simulation warms up for warmupCycles cycles, then
// measures over measureCycles.
const warmupCycles, measureCycles = 4, 8

type windowed struct {
	sw  int
	cap float64 // units per slice
}

// RotorBulkThroughput simulates RotorLB at slice granularity on a rotor
// fabric's schedule — Opera's staggered one, or RotorNet's unison one
// (topology.NewRotorNet) — under the given rack-level
// demand rates (units of host line rate; an entry of 1.0 means one host's
// full rate from rack a to rack b) and returns delivered ÷ offered at
// steady state. vlb false turns off two-hop offloading (the ablation).
//
// Capacity units: one "unit" is one host-link-slice of bytes. A circuit
// carries its window fraction (≈ duty cycle) per slice; each rack can
// inject at most d units per slice (its hosts' NICs) and absorb at most d.
// A queue holding more than one cycle's direct drainage —
// PairWindowsPerCycle units — is skewed, and its excess is offloaded over
// two hops.
func RotorBulkThroughput(sched *topology.Opera, demand [][]float64, vlb bool) float64 {
	n := sched.NumRacks()
	hostsPerRack := float64(sched.HostsPerRack())
	slicesPerCycle := sched.SlicesPerCycle()
	vlbThreshold := float64(sched.PairWindowsPerCycle())
	own := make([][]float64, n)   // own queued units, by (src, dst)
	relay := make([][]float64, n) // relayed units stored at rack, by final dst
	for i := range own {
		own[i] = make([]float64, n)
		relay[i] = make([]float64, n)
	}
	var delivered, offered float64
	totalSlices := (warmupCycles + measureCycles) * slicesPerCycle
	measureFrom := warmupCycles * slicesPerCycle

	egress := make([]float64, n)
	ingress := make([]float64, n)

	for abs := 0; abs < totalSlices; abs++ {
		s := abs % slicesPerCycle
		measuring := abs >= measureFrom
		// Inject this slice's demand (rates × one slice).
		for a := 0; a < n; a++ {
			for b := 0; b < n; b++ {
				if a != b && demand[a][b] > 0 {
					own[a][b] += demand[a][b]
					if measuring {
						offered += demand[a][b]
					}
				}
			}
		}
		for i := 0; i < n; i++ {
			egress[i] = hostsPerRack // per-slice NIC budget
			ingress[i] = hostsPerRack
		}
		// ws lists the switches admitting bulk this slice, with the
		// fraction of the slice each is open.
		ws := make([]windowed, 0, sched.Uplinks())
		for sw := 0; sw < sched.Uplinks(); sw++ {
			start, end := sched.BulkWindow(sw, s)
			if cap := float64(end-start) / float64(sched.SliceDuration()); cap > 0 {
				ws = append(ws, windowed{sw: sw, cap: cap})
			}
		}
		// used[a][i] tracks capacity consumed on rack a's i-th window, so
		// the VLB pass sees true spare capacity.
		used := make([][]float64, n)
		for a := range used {
			used[a] = make([]float64, len(ws))
		}
		// Pass 1: relayed then direct traffic on every circuit.
		for a := 0; a < n; a++ {
			for i, w := range ws {
				b := sched.SwitchMatching(w.sw, s).Peer(a)
				if b == a {
					continue
				}
				c := w.cap
				// Stored relay first (RotorLB service order).
				x := min(relay[a][b], c, egress[a], ingress[b])
				relay[a][b] -= x
				c -= x
				egress[a] -= x
				ingress[b] -= x
				used[a][i] += x
				if measuring {
					delivered += x
				}
				// Own direct.
				y := min(own[a][b], c, egress[a], ingress[b])
				own[a][b] -= y
				egress[a] -= y
				ingress[b] -= y
				used[a][i] += y
				if measuring {
					delivered += y
				}
			}
		}
		if vlb {
			// Pass 2: two-hop offloading — rack a pushes skewed backlog
			// own[a][c] through b into b's relay store, bounded by the
			// circuit's spare window and both racks' host budgets.
			for a := 0; a < n; a++ {
				for i, w := range ws {
					b := sched.SwitchMatching(w.sw, s).Peer(a)
					if b == a {
						continue
					}
					rem := w.cap - used[a][i]
					if rem <= 1e-12 {
						continue
					}
					for cdst := 0; cdst < n && rem > 1e-12; cdst++ {
						if cdst == a || cdst == b {
							continue
						}
						if own[a][cdst] <= vlbThreshold {
							continue // not skewed: direct circuits will drain it
						}
						x := min(own[a][cdst]-vlbThreshold, rem, egress[a], ingress[b])
						if x <= 0 {
							continue
						}
						own[a][cdst] -= x
						relay[b][cdst] += x
						rem -= x
						used[a][i] += x
						egress[a] -= x
						ingress[b] -= x
					}
				}
			}
		}
	}
	if offered == 0 {
		return 1
	}
	// Steady-state delivered fraction; queues absorb the overload.
	theta := delivered / offered
	if theta > 1 {
		theta = 1
	}
	return theta
}
