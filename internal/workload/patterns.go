package workload

import (
	"math/rand"

	"github.com/opera-net/opera/internal/eventsim"
)

// FlowSpec is one flow to inject: source and destination hosts, size, and
// arrival time, plus optional application metadata: a Tag carried
// end-to-end into per-tag result breakdowns, and a Bulk marker that
// application-tags the flow for bulk service regardless of its size
// (§3.4's application-based tagging).
type FlowSpec struct {
	Src, Dst int
	Bytes    int64
	Arrival  eventsim.Time

	// Tag labels the flow's workload component ("" = untagged).
	Tag string
	// Bulk forces bulk service for this flow regardless of size.
	Bulk bool
}

// PoissonConfig parameterizes an open-loop Poisson flow arrival process
// (§5.1): load is expressed relative to the aggregate bandwidth of all
// host links.
type PoissonConfig struct {
	NumHosts int
	// Load is the offered load as a fraction of aggregate host bandwidth
	// (1.0 = every host driving its link at line rate).
	Load float64
	// LinkRateGbps is the host link rate.
	LinkRateGbps float64
	// Duration is the arrival window.
	Duration eventsim.Time
	// Dist draws flow sizes.
	Dist *FlowSizeDist
	// Seed drives arrivals, sizes and endpoint selection.
	Seed int64
}

// PoissonSource generates flows with exponential inter-arrivals at the rate
// implied by the offered load and mean flow size, with uniform random
// source and destination hosts, yielded one flow at a time so memory stays
// constant no matter how long the window is.
func PoissonSource(cfg PoissonConfig) Source {
	rng := rand.New(rand.NewSource(cfg.Seed))
	mean := cfg.Dist.Mean()
	// Aggregate offered bits/s = load × hosts × rate; flows/s = that / mean flow bits.
	bitsPerSec := cfg.Load * float64(cfg.NumHosts) * cfg.LinkRateGbps * 1e9
	flowsPerSec := bitsPerSec / (mean * 8)
	if flowsPerSec <= 0 {
		return SourceFunc(func() (FlowSpec, bool) { return FlowSpec{}, false })
	}
	meanGapNs := 1e9 / flowsPerSec

	t := eventsim.Time(0)
	done := false
	return SourceFunc(func() (FlowSpec, bool) {
		if done {
			return FlowSpec{}, false
		}
		gap := eventsim.Time(rng.ExpFloat64() * meanGapNs)
		t += gap
		if t >= cfg.Duration {
			done = true
			return FlowSpec{}, false
		}
		src := rng.Intn(cfg.NumHosts)
		dst := rng.Intn(cfg.NumHosts)
		for dst == src {
			dst = rng.Intn(cfg.NumHosts)
		}
		return FlowSpec{
			Src:     src,
			Dst:     dst,
			Bytes:   cfg.Dist.Sample(rng),
			Arrival: t,
		}, true
	})
}

func sameRack(a, b, perRack int) bool { return a/perRack == b/perRack }

// Shuffle generates the §5.2 all-to-all shuffle: every host sends flowBytes
// to every other host (rack-local pairs included), all starting at time 0
// as RotorLB handles simultaneous starts gracefully; callers simulating
// static networks typically stagger arrivals over a few milliseconds to
// avoid their startup effects, which staggerOver provides.
func Shuffle(numHosts int, flowBytes int64, staggerOver eventsim.Time, seed int64) []FlowSpec {
	rng := rand.New(rand.NewSource(seed))
	var out []FlowSpec
	for src := 0; src < numHosts; src++ {
		for dst := 0; dst < numHosts; dst++ {
			if dst == src {
				continue
			}
			var at eventsim.Time
			if staggerOver > 0 {
				at = eventsim.Time(rng.Int63n(int64(staggerOver)))
			}
			out = append(out, FlowSpec{Src: src, Dst: dst, Bytes: flowBytes, Arrival: at})
		}
	}
	return out
}

// Permutation generates the §5.6 host permutation: each host sends to
// exactly one non-rack-local host (a fixed random derangement at rack
// granularity).
func Permutation(numHosts, hostsPerRack int, flowBytes int64, seed int64) []FlowSpec {
	rng := rand.New(rand.NewSource(seed))
	for attempt := 0; ; attempt++ {
		perm := rng.Perm(numHosts)
		ok := true
		for src, dst := range perm {
			if sameRack(src, dst, hostsPerRack) {
				ok = false
				break
			}
		}
		if !ok && attempt < 1000 {
			continue
		}
		out := make([]FlowSpec, 0, numHosts)
		for src, dst := range perm {
			out = append(out, FlowSpec{Src: src, Dst: dst, Bytes: flowBytes})
		}
		return out
	}
}

// HotRack generates the §5.6 hot-rack pattern: every host of rack 0 sends
// to its counterpart in rack 1, saturating one rack pair while the rest of
// the fabric idles.
func HotRack(hostsPerRack int, flowBytes int64) []FlowSpec {
	out := make([]FlowSpec, 0, hostsPerRack)
	for i := 0; i < hostsPerRack; i++ {
		out = append(out, FlowSpec{Src: i, Dst: hostsPerRack + i, Bytes: flowBytes})
	}
	return out
}

// Saturate generates the Figure 10 underlay: every host keeps one flow to
// its counterpart in every other rack, each sized so the host's flows
// together fill its link for the whole window.
func Saturate(numHosts, hostsPerRack int, window eventsim.Time, linkRateGbps float64) []FlowSpec {
	racks := numHosts / hostsPerRack
	if racks < 2 {
		return nil
	}
	bytes := int64(window.Seconds() * linkRateGbps * 1e9 / 8 / float64(racks-1))
	out := make([]FlowSpec, 0, numHosts*(racks-1))
	for h := 0; h < numHosts; h++ {
		for r := 0; r < racks; r++ {
			if r != h/hostsPerRack {
				out = append(out, FlowSpec{Src: h, Dst: r*hostsPerRack + h%hostsPerRack, Bytes: bytes})
			}
		}
	}
	return out
}

// Skew generates the skew[p,1] pattern of [29]/§5.6: a fraction p of racks
// are active and exchange all-to-all traffic at full load; the remainder
// are idle.
func Skew(numRacks, hostsPerRack int, activeFraction float64, flowBytes int64, seed int64) []FlowSpec {
	rng := rand.New(rand.NewSource(seed))
	nActive := int(activeFraction*float64(numRacks) + 0.5)
	if nActive < 2 {
		nActive = 2
	}
	racks := rng.Perm(numRacks)[:nActive]
	var out []FlowSpec
	for _, ra := range racks {
		for _, rb := range racks {
			if ra == rb {
				continue
			}
			for i := 0; i < hostsPerRack; i++ {
				out = append(out, FlowSpec{
					Src:   ra*hostsPerRack + i,
					Dst:   rb*hostsPerRack + i,
					Bytes: flowBytes,
				})
			}
		}
	}
	return out
}
