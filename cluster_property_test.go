package opera_test

import (
	"math/rand"
	"testing"

	opera "github.com/opera-net/opera"
	"github.com/opera-net/opera/internal/eventsim"
	"github.com/opera-net/opera/internal/workload"
)

// Property: on every architecture, for randomized flow sets (sizes spanning
// both service classes, random endpoints and arrival times), every flow
// completes with exactly its byte count delivered — the end-to-end
// conservation invariant of the whole stack (transports, queues, slices,
// NACK requeues).
func TestClusterConservationProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("packet-level property test")
	}
	kinds := []opera.Kind{opera.KindOpera, opera.KindExpander, opera.KindFoldedClos, opera.KindRotorNetHybrid}
	for trial := 0; trial < 6; trial++ {
		seed := int64(trial*7 + 1)
		rng := rand.New(rand.NewSource(seed))
		kind := kinds[trial%len(kinds)]
		cl, err := opera.New(kind, opera.WithSeed(seed))
		if err != nil {
			t.Fatalf("trial %d (%v): %v", trial, kind, err)
		}
		n := cl.NumHosts()
		numFlows := 20 + rng.Intn(40)
		var flows []*simFlowRef
		for i := 0; i < numFlows; i++ {
			src := rng.Intn(n)
			dst := rng.Intn(n - 1)
			if dst >= src {
				dst++
			}
			size := int64(64 + rng.Intn(500_000))
			if rng.Intn(4) == 0 {
				size += 300_000 // push some into the bulk class
			}
			f := cl.AddFlow(workload.FlowSpec{
				Src: src, Dst: dst, Bytes: size,
				Arrival: eventsim.Time(rng.Intn(2_000_000)), // within 2 ms
				// Tagging exercises the bulk path with modest flows.
				Bulk: size >= 200_000,
			})
			flows = append(flows, &simFlowRef{size: size, done: &f.Done, rcvd: &f.BytesRcvd})
		}
		if !cl.RunUntilDone(4000 * eventsim.Millisecond) {
			done, total := cl.Metrics().DoneCount()
			t.Fatalf("trial %d (%v): %d/%d flows completed", trial, kind, done, total)
		}
		for i, f := range flows {
			if *f.rcvd != f.size {
				t.Fatalf("trial %d (%v) flow %d: delivered %d of %d bytes",
					trial, kind, i, *f.rcvd, f.size)
			}
		}
	}
}

type simFlowRef struct {
	size int64
	done *bool
	rcvd *int64
}
