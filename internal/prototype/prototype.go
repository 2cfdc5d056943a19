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
// Opera topology's path lengths, in place of the physical Tofino.
package prototype

import (
	"fmt"
	"math/rand"

	"github.com/opera-net/opera/internal/graph"
	"github.com/opera-net/opera/internal/stats"
	"github.com/opera-net/opera/internal/topology"
)

// §6.1's testbed timings.
const (
	// perHopPipelineUs is the P4 forwarding latency per switch traversal
	// (§6.1 reports ≈3 µs through the Tofino pipeline).
	perHopPipelineUs = 3.0
	// hostOverheadUs is the RoCE/MPI end-host overhead per RTT, with
	// hostJitterUs of exponential tail variance.
	hostOverheadUs = 2.0
	hostJitterUs   = 0.8
	// seed builds the testbed topology; the ping-pong draws from seed+17.
	seed = 1
	// mtuSerializationUs is the worst-case blocking per serialization
	// point: one MTU at the line rate, 1.2 µs.
	mtuSerializationUs = float64(topology.DefaultMTU) * 8 / topology.DefaultLinkRateGbps / 1e3
)

// testbed is the emulated prototype's topology: Figure 5's 8 ToRs and 4
// circuit switches.
var testbed = topology.Config{NumRacks: 8, HostsPerRack: 1, NumSwitches: 4, Seed: seed}

// Figure13 runs samples ping-pong exchanges on the testbed without and
// then with bulk background traffic, and returns the two RTT
// distributions of Figure 13 in microseconds.
func Figure13(samples int) (withoutBulk, withBulk *stats.Sample, err error) {
	topo, err := topology.NewOpera(testbed)
	if err != nil {
		return nil, nil, fmt.Errorf("prototype: %w", err)
	}
	n := topo.NumRacks()
	slices := topo.SlicesPerCycle()
	// dist[s] holds slice s's expander distances.
	dist := make([][][]int, slices)
	peers := graph.NewTable(n, topo.Uplinks())
	var bfs graph.BitBFS
	for s := range dist {
		topo.SlicePeers(s, peers)
		dist[s] = bfs.Distances(peers)
	}
	rtts := func(bulk bool) *stats.Sample {
		rng := rand.New(rand.NewSource(seed + 17))
		var out stats.Sample
		for i := 0; i < samples; i++ {
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
			rtt := oneWay(h, bulk, rng) + oneWay(h, bulk, rng) +
				hostOverheadUs + rng.ExpFloat64()*hostJitterUs
			out.Add(rtt)
		}
		return &out
	}
	return rtts(false), rtts(true), nil
}

// oneWay returns the one-way latency in µs for a path of h ToR-to-ToR hops.
func oneWay(h int, withBulk bool, rng *rand.Rand) float64 {
	// §6.1: ≈3 µs of P4 pipeline per ToR-to-ToR hop (ToR + emulated
	// circuit switch share the ASIC), "up to 9 µs depending on path
	// length" for the testbed's ≤3-hop paths.
	lat := float64(h) * perHopPipelineUs
	// Serialization points: host→ToR, each hop's two emulated-circuit
	// links, ToR→host: 2 + 2h (≈8 for the longest paths, §6.1), each
	// blocking behind up to one MTU of bulk currently serializing.
	if withBulk {
		points := 2 + 2*h
		for i := 0; i < points; i++ {
			lat += rng.Float64() * mtuSerializationUs
		}
	}
	return lat
}
