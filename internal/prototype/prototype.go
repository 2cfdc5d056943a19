// Package prototype emulates the paper's §6 hardware prototype: eight ToR
// switches and four circuit switches realized as virtual switches inside a
// single Barefoot Tofino, with eight end hosts running an MPI shuffle and a
// low-latency RDMA ping-pong.
//
// What Figure 13 measures is a queueing effect, not optical behaviour: each
// P4 pipeline traversal costs ≈3 µs, and in the presence of bulk background
// traffic a low-latency packet can wait behind at most one MTU currently
// serializing at each of up to eight serialization points per direction
// (16 per ping-pong RTT), each worth up to 1.2 µs at 10 Gb/s. This package
// reproduces those RTT distributions by Monte-Carlo over the real 8-ToR
// Opera topology's path lengths — the substitution for the physical Tofino
// documented in DESIGN.md.
package prototype

import (
	"fmt"
	"math/rand"

	"github.com/opera-net/opera/internal/graph"
	"github.com/opera-net/opera/internal/stats"
	"github.com/opera-net/opera/internal/topology"
)

// Params models the testbed's timing constants.
type Params struct {
	// PerHopPipeline is the P4 forwarding latency per switch traversal
	// (§6.1 reports ≈3 µs through the Tofino pipeline).
	PerHopPipelineUs float64
	// MTUSerializationUs is the worst-case blocking per serialization
	// point (one 1500 B MTU at 10 Gb/s).
	MTUSerializationUs float64
	// HostOverheadUs is the RoCE/MPI end-host overhead per RTT, with
	// HostJitterUs of tail variance.
	HostOverheadUs float64
	HostJitterUs   float64
	// Samples is the number of ping-pong exchanges to draw.
	Samples int
	Seed    int64
}

// DefaultParams matches §6.1.
func DefaultParams() Params {
	return Params{
		PerHopPipelineUs:   3.0,
		MTUSerializationUs: 1.2,
		HostOverheadUs:     2.0,
		HostJitterUs:       0.8,
		Samples:            20000,
		Seed:               1,
	}
}

// Testbed is the emulated 8-ToR, 4-circuit-switch prototype.
type Testbed struct {
	topo   *topology.Opera
	params Params
}

// New builds the testbed over the same 8-ToR topology as Figure 5.
func New(params Params) (*Testbed, error) {
	topo, err := topology.NewOpera(topology.Config{
		NumRacks:     8,
		HostsPerRack: 1,
		NumSwitches:  4,
		Seed:         params.Seed,
	})
	if err != nil {
		return nil, fmt.Errorf("prototype: %w", err)
	}
	return &Testbed{topo: topo, params: params}, nil
}

// RTTs runs the ping-pong experiment and returns per-exchange RTTs in
// microseconds, with and without bulk background traffic.
func (tb *Testbed) RTTs(withBulk bool) *stats.Sample {
	p := tb.params
	rng := rand.New(rand.NewSource(p.Seed + 17))
	var out stats.Sample
	n := tb.topo.NumRacks()
	slices := tb.topo.SlicesPerCycle()
	// dist[s] holds slice s's expander distances.
	dist := make([][][]int, slices)
	peers := graph.NewTable(n, tb.topo.Uplinks())
	var bfs graph.BitBFS
	for s := range dist {
		tb.topo.SlicePeers(s, peers)
		dist[s] = bfs.Distances(peers)
	}
	for i := 0; i < p.Samples; i++ {
		src := rng.Intn(n)
		dst := rng.Intn(n - 1)
		if dst >= src {
			dst++
		}
		// The ping lands in a random topology slice; use its expander
		// distance.
		h := dist[rng.Intn(slices)][src][dst]
		if h == graph.Unreachable {
			continue // disconnected slice cannot occur post-validation
		}
		rtt := tb.oneWay(h, withBulk, rng) + tb.oneWay(h, withBulk, rng) +
			p.HostOverheadUs + rng.ExpFloat64()*p.HostJitterUs
		out.Add(rtt)
	}
	return &out
}

// oneWay returns the one-way latency in µs for a path of h ToR-to-ToR hops.
func (tb *Testbed) oneWay(h int, withBulk bool, rng *rand.Rand) float64 {
	p := tb.params
	// §6.1: ≈3 µs of P4 pipeline per ToR-to-ToR hop (ToR + emulated
	// circuit switch share the ASIC), "up to 9 µs depending on path
	// length" for the testbed's ≤3-hop paths.
	lat := float64(h) * p.PerHopPipelineUs
	// Serialization points: host→ToR, each hop's two emulated-circuit
	// links, ToR→host: 2 + 2h (≈8 for the longest paths, §6.1), each
	// blocking behind up to one MTU of bulk currently serializing.
	if withBulk {
		points := 2 + 2*h
		for i := 0; i < points; i++ {
			lat += rng.Float64() * p.MTUSerializationUs
		}
	}
	return lat
}

// Figure13 returns the two RTT distributions of Figure 13.
func Figure13(params Params) (withoutBulk, withBulk *stats.Sample, err error) {
	tb, err := New(params)
	if err != nil {
		return nil, nil, err
	}
	return tb.RTTs(false), tb.RTTs(true), nil
}
