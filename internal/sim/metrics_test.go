package sim

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/opera-net/opera/internal/eventsim"
	"github.com/opera-net/opera/internal/telemetry"
)

func TestFCTSampleFilter(t *testing.T) {
	m := NewMetrics()
	a := &Flow{ID: 1, Size: 100, Class: ClassLowLatency, Start: 0}
	b := &Flow{ID: 2, Size: 100, Class: ClassBulk, Start: 0}
	m.AddFlow(a)
	m.AddFlow(b)
	m.FlowDone(a, 1000)
	m.FlowDone(b, 2000)
	ll := m.FCTSample(func(f *Flow) bool { return f.Class == ClassLowLatency })
	if ll.N() != 1 || ll.Mean() != 1.0 {
		t.Fatalf("LL sample: n=%d mean=%v", ll.N(), ll.Mean())
	}
	all := m.FCTSample(nil)
	if all.N() != 2 {
		t.Fatalf("all sample n=%d", all.N())
	}
}

func TestBandwidthTaxZeroWhenIdle(t *testing.T) {
	m := NewMetrics()
	if m.BandwidthTax(ClassBulk) != 0 || m.AggregateTax() != 0 {
		t.Fatal("idle metrics should have zero tax")
	}
}

func TestOnFlowDoneCallback(t *testing.T) {
	m := NewMetrics()
	var called int
	m.OnFlowDone = func(f *Flow) { called++ }
	f := &Flow{ID: 1}
	m.AddFlow(f)
	m.FlowDone(f, 10)
	m.FlowDone(f, 20) // idempotent: no second call
	if called != 1 {
		t.Fatalf("callback fired %d times", called)
	}
}

// Property: tax is (sum hops·bytes / sum bytes) − 1 for arbitrary delivery
// patterns, and never negative.
func TestTaxProperty(t *testing.T) {
	f := func(hops []uint8) bool {
		m := NewMetrics()
		fl := &Flow{ID: 1, Size: 1 << 40, Class: ClassBulk}
		m.AddFlow(fl)
		var up, good float64
		for _, h := range hops {
			hh := int(h%6) + 1
			m.RecordDelivery(fl, 1000, hh, 0)
			up += 1000 * float64(hh)
			good += 1000
		}
		if good == 0 {
			return m.BandwidthTax(ClassBulk) == 0
		}
		want := up/good - 1
		got := m.BandwidthTax(ClassBulk)
		return math.Abs(got-want) < 1e-9 && got >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestRackLocalDeliveryNotTaxed(t *testing.T) {
	m := NewMetrics()
	fl := &Flow{ID: 1, Size: 1000, Class: ClassLowLatency}
	m.AddFlow(fl)
	m.RecordDelivery(fl, 1000, 0, 0) // zero hops: rack-local
	if m.GoodputBytes[ClassLowLatency] != 0 {
		t.Fatal("rack-local bytes should not count toward fabric goodput")
	}
	if fl.BytesRcvd != 1000 {
		t.Fatal("delivery bytes must still accrue to the flow")
	}
}

// DoneCount is O(1): the counter is maintained by FlowDone, never by
// rescanning the flow table. This pins the incremental bookkeeping —
// idempotent completion, interleaved registration, agreement with a full
// scan at every step.
func TestDoneCountIncremental(t *testing.T) {
	m := NewMetrics()
	scan := func() int {
		n := 0
		for _, f := range m.Flows() {
			if f.Done {
				n++
			}
		}
		return n
	}
	var flows []*Flow
	for i := 0; i < 100; i++ {
		f := &Flow{ID: int64(i), Size: 1000}
		m.AddFlow(f)
		flows = append(flows, f)
		if i%2 == 0 {
			m.FlowDone(f, eventsim.Time(i))
			m.FlowDone(f, eventsim.Time(i+1)) // idempotent: must not double count
		}
		done, total := m.DoneCount()
		if done != scan() || total != i+1 {
			t.Fatalf("after %d flows: DoneCount = (%d, %d), scan = %d", i+1, done, total, scan())
		}
	}
	// Finish the rest out of registration order.
	for i := len(flows) - 1; i >= 0; i-- {
		m.FlowDone(flows[i], 10_000)
	}
	done, total := m.DoneCount()
	if done != 100 || total != 100 {
		t.Fatalf("final DoneCount = (%d, %d), want (100, 100)", done, total)
	}
}

// Streaming retention releases every completed flow: Metrics retains
// nothing and the sketches absorb the statistics.
func TestRetainSketchReleasesFlows(t *testing.T) {
	m := NewMetrics()
	m.SetRetention(RetainSketch(telemetry.Opts{}))
	if !m.Streaming() || m.Telemetry() == nil {
		t.Fatal("RetainSketch should report Streaming with a collector")
	}

	a := &Flow{ID: 1, Size: 100, Class: ClassLowLatency, Tag: "ws"}
	b := &Flow{ID: 2, Size: 100, Class: ClassBulk, Tag: "ws"}
	c := &Flow{ID: 3, Size: 100, Class: ClassLowLatency}
	for _, f := range []*Flow{a, b, c} {
		m.AddFlow(f)
	}
	m.RecordDelivery(a, 100, 2, 500)
	m.FlowDone(a, 1000)
	m.FlowDone(a, 2000) // idempotent: no double absorb
	m.FlowDone(b, 3000)

	if n := len(m.Flows()); n != 0 {
		t.Fatalf("streaming retention kept %d flows", n)
	}
	done, total := m.DoneCount()
	if done != 2 || total != 3 {
		t.Fatalf("DoneCount = (%d, %d), want (2, 3)", done, total)
	}
	tel := m.Telemetry()
	if got := tel.ClassSketch(int(ClassLowLatency)).Count(); got != 1 {
		t.Fatalf("low-latency sketch count = %d", got)
	}
	if got := tel.Merged().Count(); got != 2 {
		t.Fatalf("merged sketch count = %d", got)
	}
	ws := tel.Tags()["ws"]
	if ws == nil || ws.Done != 2 || ws.Total != 2 || ws.Bytes != 100 {
		t.Fatalf("tag tally = %+v", ws)
	}
	// FCTs entered in microseconds: flow a completed at 1000 ns = 1 µs.
	if p := tel.ClassSketch(int(ClassLowLatency)).Quantile(0.5); math.Abs(p-1) > 0.02 {
		t.Fatalf("LL p50 = %v µs, want ~1", p)
	}
}

// Delivered bytes stay exact under streaming retention even once bins
// rotate out of the trailing window, and the windowed tax matches the
// exact counters when everything fits the window.
func TestRetainSketchDeliveredAndTax(t *testing.T) {
	m := NewMetrics()
	m.SetRetention(RetainSketch(telemetry.Opts{}))
	f := &Flow{ID: 1, Size: 1 << 30, Class: ClassBulk}
	m.AddFlow(f)
	for i := 0; i < 200; i++ { // 200 ms ≫ the 128 ms window
		m.RecordDelivery(f, 1000, 2, eventsim.Time(i)*eventsim.Millisecond)
	}
	if got := m.DeliveredTotal(); got != 200_000 {
		t.Fatalf("DeliveredTotal = %v, want 200000", got)
	}
	if m.DeliveredBytes != nil {
		t.Fatal("exact DeliveredBytes series should be nil under RetainSketch")
	}
	if tax := m.AggregateTax(); math.Abs(tax-1) > 1e-9 {
		t.Fatalf("exact tax = %v, want 1 (2 hops per byte)", tax)
	}
	tel := m.Telemetry()
	if good := tel.Goodput().WindowTotal(); good != 128_000 {
		t.Fatalf("windowed goodput = %v, want 128000 (128 retained bins)", good)
	}
	if up := tel.Uplink().WindowTotal(); up != 256_000 {
		t.Fatalf("windowed uplink bytes = %v, want 256000", up)
	}
	if tax := tel.WindowTax(); tax != 1 {
		t.Fatalf("windowed tax = %v, want the exact 1", tax)
	}
}

func TestSetRetentionAfterFlowsPanics(t *testing.T) {
	m := NewMetrics()
	m.AddFlow(&Flow{ID: 1})
	defer func() {
		if recover() == nil {
			t.Fatal("SetRetention after AddFlow should panic")
		}
	}()
	m.SetRetention(RetainSketch(telemetry.Opts{}))
}
