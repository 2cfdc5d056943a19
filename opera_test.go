package opera_test

import (
	"testing"

	opera "github.com/opera-net/opera"
	"github.com/opera-net/opera/internal/eventsim"
	"github.com/opera-net/opera/internal/sim"
	"github.com/opera-net/opera/internal/workload"
)

func TestClusterKinds(t *testing.T) {
	kinds := []opera.Kind{
		opera.KindOpera, opera.KindExpander, opera.KindFoldedClos,
		opera.KindRotorNet, opera.KindRotorNetHybrid,
	}
	for _, k := range kinds {
		cl, err := opera.New(k) // defaults: 16 racks × 4 hosts, 4 uplinks, Clos k=8 F=3, seed 1
		if err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		if cl.NumHosts() == 0 {
			t.Fatalf("%v: no hosts", k)
		}
		if cl.Kind() != k {
			t.Fatalf("kind mismatch")
		}
		// One small flow end to end on every architecture.
		f := cl.AddFlow(workload.FlowSpec{Src: 0, Dst: cl.NumHosts() - 1, Bytes: 3000})
		if !cl.RunUntilDone(500 * eventsim.Millisecond) {
			t.Fatalf("%v: flow incomplete (%d/%d bytes)", k, f.BytesRcvd, f.Size)
		}
	}
}

func TestClusterClassification(t *testing.T) {
	cl, err := opera.New(opera.KindOpera)
	if err != nil {
		t.Fatal(err)
	}
	small := cl.AddFlow(workload.FlowSpec{Src: 0, Dst: 20, Bytes: 1000})
	big := cl.AddFlow(workload.FlowSpec{Src: 1, Dst: 21, Bytes: 20_000_000})
	tagged := cl.AddBulkFlow(workload.FlowSpec{Src: 2, Dst: 22, Bytes: 1000})
	if small.Class != sim.ClassLowLatency {
		t.Fatalf("small flow class = %v", small.Class)
	}
	if big.Class != sim.ClassBulk {
		t.Fatalf("big flow class = %v", big.Class)
	}
	if tagged.Class != sim.ClassBulk {
		t.Fatalf("tagged flow class = %v", tagged.Class)
	}
}

// A flow of exactly DefaultBulkThreshold bytes is bulk and one byte less is
// latency-sensitive, on every architecture. The flows arrive later than
// now, so nothing starts and Class is classify's verdict alone (non-hybrid
// RotorNet reclassifies everything bulk when a flow starts).
func TestClusterBulkThresholdBoundary(t *testing.T) {
	for _, k := range []opera.Kind{
		opera.KindOpera, opera.KindExpander, opera.KindFoldedClos,
		opera.KindRotorNet, opera.KindRotorNetHybrid,
	} {
		cl, err := opera.New(k)
		if err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		at := eventsim.Millisecond
		big := cl.AddFlow(workload.FlowSpec{Src: 0, Dst: 20, Bytes: 15_000_000, Arrival: at})
		small := cl.AddFlow(workload.FlowSpec{Src: 1, Dst: 21, Bytes: 14_999_999, Arrival: at})
		if big.Class != sim.ClassBulk || small.Class != sim.ClassLowLatency {
			t.Errorf("%v: 15,000,000 B → %v, 14,999,999 B → %v; want bulk, low-latency", k, big.Class, small.Class)
		}
	}
}

func TestClusterRejectsBadConfig(t *testing.T) {
	if _, err := opera.New(opera.KindOpera, opera.WithRacks(15)); err == nil {
		t.Fatal("odd rack count accepted")
	}
	if _, err := opera.New(opera.KindFoldedClos, opera.WithClos(7, 3)); err == nil {
		t.Fatal("odd Clos radix accepted")
	}
	if _, err := opera.New(opera.Kind(99)); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

func TestClusterDelayedArrival(t *testing.T) {
	cl, err := opera.New(opera.KindOpera)
	if err != nil {
		t.Fatal(err)
	}
	f := cl.AddFlow(workload.FlowSpec{
		Src: 0, Dst: 40, Bytes: 1500, Arrival: 5 * eventsim.Millisecond,
	})
	cl.Run(4 * eventsim.Millisecond)
	if f.Done || f.BytesRcvd > 0 {
		t.Fatal("flow ran before its arrival time")
	}
	if !cl.RunUntilDone(100 * eventsim.Millisecond) {
		t.Fatal("flow incomplete")
	}
	if f.Start < 5*eventsim.Millisecond {
		t.Fatalf("start = %v, want >= arrival", f.Start)
	}
}

func TestKindString(t *testing.T) {
	if opera.KindOpera.String() != "opera" || opera.KindRotorNetHybrid.String() != "rotornet-hybrid" {
		t.Fatal("kind names wrong")
	}
}
