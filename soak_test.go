package opera_test

import (
	"math"
	"runtime"
	"sort"
	"testing"

	opera "github.com/opera-net/opera"
	"github.com/opera-net/opera/internal/eventsim"
	"github.com/opera-net/opera/internal/workload"
)

// soakFlows is the flow count of the flat-memory gate — large enough that
// retained per-flow state (flows, NDP table entries and bitmaps) would
// show up as tens of megabytes of heap growth.
const soakFlows = 120_000

// soakSource streams soakFlows small low-latency flows open-loop: one
// arrival every 800 ns round-robin across hosts (~3% offered load on the
// small testbed), deterministic and cheap enough for the CI fast lane.
func soakSource(numHosts int) workload.Source {
	i := 0
	return workload.SourceFunc(func() (workload.FlowSpec, bool) {
		if i >= soakFlows {
			return workload.FlowSpec{}, false
		}
		src := i % numHosts
		dst := (src + 1 + (i/numHosts)%(numHosts-1)) % numHosts
		spec := workload.FlowSpec{
			Src: src, Dst: dst, Bytes: 2_000,
			Arrival: eventsim.Time(i) * 800 * eventsim.Nanosecond,
		}
		i++
		return spec, true
	})
}

// memStats collects garbage and reads the allocator's statistics.
func memStats() runtime.MemStats {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms
}

// TestRetainSketchFlatMemorySoak is the flat-memory gate CI's fast lane
// runs: a 120k-flow open-loop soak under RetainSketch must hold
// steady-state heap flat (every per-flow record is released on
// completion) and allocate almost nothing per flow (flow records are
// recycled), and its p99 FCT must sit within the sketch's pinned error
// bound of the exact value from an identical RetainAll run. Under
// RetainAll the same soak accrues tens of megabytes — the growth bound
// fails loudly if any owner of per-flow state stops releasing.
func TestRetainSketchFlatMemorySoak(t *testing.T) {
	if raceEnabled {
		t.Skip("heap-growth bound is distorted by the race allocator; nothing concurrent here")
	}
	cl, err := opera.New(opera.KindOpera,
		opera.WithSeed(1),
		opera.WithRetention(opera.RetainSketch(opera.SketchOptions{})))
	if err != nil {
		t.Fatal(err)
	}
	cl.AddSource(soakSource(cl.NumHosts()))

	// Warm up through the first third so event pools and port rings reach
	// steady state and the sketch holds the pages its flows touch (a later
	// new bucket allocates at most one 1 KiB page), then measure growth to
	// the end of the run.
	warmup := eventsim.Time(soakFlows/3) * 800 * eventsim.Nanosecond
	cl.Run(warmup)
	doneAtWarmup, _ := cl.Metrics().DoneCount()
	if doneAtWarmup < soakFlows/4 {
		t.Fatalf("warmup completed only %d flows; soak is not in steady state", doneAtWarmup)
	}
	before := memStats()
	if !cl.RunUntilDone(2000 * eventsim.Millisecond) {
		done, total := cl.Metrics().DoneCount()
		t.Fatalf("soak incomplete: %d/%d", done, total)
	}
	after := memStats()
	growth := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	perFlow := float64(after.TotalAlloc-before.TotalAlloc) / float64(soakFlows-doneAtWarmup)
	cl.Stop()

	done, total := cl.Metrics().DoneCount()
	if total != soakFlows || done != soakFlows {
		t.Fatalf("DoneCount = (%d, %d), want (%d, %d)", done, total, soakFlows, soakFlows)
	}
	if n := len(cl.Metrics().Flows()); n != 0 {
		t.Fatalf("streaming retention kept %d flows", n)
	}
	// 8 MB of headroom for allocator noise; retained per-flow state for
	// the final two thirds of the soak would cost ~30 MB+.
	if growth > 8<<20 {
		t.Fatalf("heap grew %d bytes across the soak steady state (bound 8 MiB) — per-flow state is leaking", growth)
	}
	// A *sim.Flow alone is 96 B: a steady state that allocates even a
	// fraction of one per flow has stopped recycling flow records.
	if perFlow > 16 {
		t.Fatalf("the soak steady state allocated %.1f B per completed flow (bound 16 B) — flow records are not recycled", perFlow)
	}
	t.Logf("steady state: %.2f B allocated per completed flow, heap growth %d B", perFlow, growth)

	tel := cl.Metrics().Telemetry()
	sk := tel.Merged()
	if n := sk.Summary().N; n != soakFlows {
		t.Fatalf("sketch absorbed %d flows, want %d", n, soakFlows)
	}

	// Exact twin: identical workload under RetainAll. Retention changes
	// no packet-level behavior, so the FCT multiset is the same and the
	// sketch's p99 must sit within its pinned bound of the exact one.
	if testing.Short() {
		return // the memory gate ran; skip the exact twin in the fast lane
	}
	ref, err := opera.New(opera.KindOpera, opera.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	ref.AddSource(soakSource(ref.NumHosts()))
	if !ref.RunUntilDone(2000 * eventsim.Millisecond) {
		t.Fatal("exact twin incomplete")
	}
	ref.Stop()
	exact := ref.Metrics().FCTSample(nil)
	if exact.N() != soakFlows {
		t.Fatalf("exact twin completed %d flows, want %d", exact.N(), soakFlows)
	}
	if mean := sk.Mean(); math.Abs(mean-exact.Mean())/exact.Mean() > 1e-9 {
		t.Fatalf("means diverge: sketch %v vs exact %v — retention changed behavior", mean, exact.Mean())
	}
	var sorted []float64
	for _, f := range ref.Metrics().Flows() {
		if f.Done {
			sorted = append(sorted, f.FCT().Micros())
		}
	}
	sort.Float64s(sorted)
	alpha := tel.Alpha()
	for _, p := range []float64{50, 99, 99.9} {
		got := sk.Quantile(p / 100)
		h := p / 100 * float64(len(sorted)-1)
		lo := sorted[int(math.Floor(h))] * (1 - alpha)
		hi := sorted[int(math.Ceil(h))] * (1 + alpha)
		if got < lo-1e-9 || got > hi+1e-9 {
			t.Fatalf("p%v = %v outside sketch bound [%v, %v] (exact %v)", p, got, lo, hi, exact.Percentile(p))
		}
	}
}
