package sim

import (
	"slices"
	"testing"
	"unsafe"

	"github.com/opera-net/opera/internal/eventsim"
)

// sinkNode records received packets.
type sinkNode struct {
	pkts  []*Packet
	times []eventsim.Time
	eng   *eventsim.Engine
}

func (s *sinkNode) Receive(p *Packet, _ *Port) {
	s.pkts = append(s.pkts, p)
	s.times = append(s.times, s.eng.Now())
}

func testConfig() Config {
	return DefaultConfig()
}

func mkData(size int, class Class) *Packet {
	p := NewPacket()
	p.Kind = KindData
	p.Class = class
	p.Size = int32(size)
	p.PayloadSize = int32(size)
	return p
}

func TestPortSerializationAndPropagation(t *testing.T) {
	eng := eventsim.New()
	cfg := testConfig()
	sink := &sinkNode{eng: eng}
	pt := NewPort(eng, &cfg, "t", sink)
	pt.Enqueue(mkData(1500, ClassLowLatency))
	eng.Run()
	if len(sink.pkts) != 1 {
		t.Fatalf("delivered %d packets", len(sink.pkts))
	}
	// 1500 B at 10 Gb/s = 1200 ns; + 500 ns propagation = 1700 ns.
	if got := sink.times[0]; got != 1700 {
		t.Fatalf("arrival at %v, want 1700ns", got)
	}
}

func TestPortPriorityOrder(t *testing.T) {
	eng := eventsim.New()
	cfg := testConfig()
	sink := &sinkNode{eng: eng}
	pt := NewPort(eng, &cfg, "t", sink)
	pt.SetEnabled(false) // hold so all three queue up
	bulk := mkData(1500, ClassBulk)
	bulk.Kind = KindBulk
	ll := mkData(1500, ClassLowLatency)
	ctrl := NewPacket()
	ctrl.Kind = KindAck
	ctrl.Class = ClassControl
	ctrl.Size = 64
	pt.Enqueue(bulk)
	pt.Enqueue(ll)
	pt.Enqueue(ctrl)
	pt.SetEnabled(true)
	eng.Run()
	if len(sink.pkts) != 3 {
		t.Fatalf("delivered %d packets", len(sink.pkts))
	}
	if sink.pkts[0].Kind != KindAck || sink.pkts[1].Class != ClassLowLatency || sink.pkts[2].Kind != KindBulk {
		t.Fatalf("priority order wrong: %v %v %v", sink.pkts[0].Kind, sink.pkts[1].Class, sink.pkts[2].Kind)
	}
}

func TestPortTrimOnOverflow(t *testing.T) {
	eng := eventsim.New()
	cfg := testConfig() // 12 KB LL queue = 8 × 1500
	sink := &sinkNode{eng: eng}
	pt := NewPort(eng, &cfg, "t", sink)
	pt.SetEnabled(false)
	for i := 0; i < 10; i++ {
		pt.Enqueue(mkData(1500, ClassLowLatency))
	}
	if pt.Stats.Trims != 2 {
		t.Fatalf("trims = %d, want 2", pt.Stats.Trims)
	}
	pt.SetEnabled(true)
	eng.Run()
	var trimmed, full int
	for _, p := range sink.pkts {
		if p.Trimmed {
			trimmed++
			if p.Size != 64 {
				t.Fatalf("trimmed size = %d", p.Size)
			}
			if p.PayloadSize != 1500 {
				t.Fatalf("trimmed PayloadSize = %d, want original 1500", p.PayloadSize)
			}
		} else {
			full++
		}
	}
	if full != 8 || trimmed != 2 {
		t.Fatalf("full=%d trimmed=%d, want 8/2", full, trimmed)
	}
	// Trimmed headers overtake queued full packets (control priority).
	if !sink.pkts[0].Trimmed || !sink.pkts[1].Trimmed {
		t.Fatal("headers did not jump the data queue")
	}
}

func TestPortHeaderQueueDrops(t *testing.T) {
	eng := eventsim.New()
	cfg := testConfig()
	cfg.HeaderQueueBytes = 128 // room for just 2 headers
	sink := &sinkNode{eng: eng}
	pt := NewPort(eng, &cfg, "t", sink)
	pt.SetEnabled(false)
	for i := 0; i < 12; i++ {
		pt.Enqueue(mkData(1500, ClassLowLatency))
	}
	// 8 queued, 4 trims attempted, 2 fit as headers, 2 dropped.
	if pt.Stats.Trims != 4 || pt.Stats.HdrDrops != 2 {
		t.Fatalf("trims=%d hdrDrops=%d, want 4/2", pt.Stats.Trims, pt.Stats.HdrDrops)
	}
}

func TestPortBulkDropHandler(t *testing.T) {
	eng := eventsim.New()
	cfg := testConfig()
	cfg.BulkQueueBytes = 3000 // 2 packets
	sink := &sinkNode{eng: eng}
	pt := NewPort(eng, &cfg, "t", sink)
	pt.SetEnabled(false)
	var dropped []*Packet
	pt.SetBulkDropHandler(func(p *Packet) { dropped = append(dropped, p) })
	for i := 0; i < 4; i++ {
		b := mkData(1500, ClassBulk)
		b.Kind = KindBulk
		b.Seq = int32(i)
		pt.Enqueue(b)
	}
	if len(dropped) != 2 {
		t.Fatalf("dropped %d, want 2", len(dropped))
	}
	if pt.Stats.BulkDrop != 2 {
		t.Fatalf("BulkDrop stat = %d", pt.Stats.BulkDrop)
	}
}

func TestPortBulkClassNDPDataTrims(t *testing.T) {
	// Bulk-class NDP data (static networks) must trim, not drop.
	eng := eventsim.New()
	cfg := testConfig()
	cfg.BulkQueueBytes = 3000
	sink := &sinkNode{eng: eng}
	pt := NewPort(eng, &cfg, "t", sink)
	pt.SetEnabled(false)
	for i := 0; i < 4; i++ {
		pt.Enqueue(mkData(1500, ClassBulk)) // KindData
	}
	if pt.Stats.Trims != 2 || pt.Stats.BulkDrop != 0 {
		t.Fatalf("trims=%d bulkdrops=%d, want 2/0", pt.Stats.Trims, pt.Stats.BulkDrop)
	}
}

func TestPortFlushForReconfig(t *testing.T) {
	eng := eventsim.New()
	cfg := testConfig()
	sink := &sinkNode{eng: eng}
	pt := NewPort(eng, &cfg, "t", sink)
	pt.SetEnabled(false)
	var nacked, requeued []*Packet
	pt.SetBulkDropHandler(func(p *Packet) { nacked = append(nacked, p) })
	b := mkData(1500, ClassBulk)
	b.Kind = KindBulk
	pt.Enqueue(b)
	pt.Enqueue(mkData(1500, ClassLowLatency))
	pt.FlushForReconfig(func(p *Packet) { requeued = append(requeued, p) })
	if len(nacked) != 1 || len(requeued) != 1 {
		t.Fatalf("nacked=%d requeued=%d, want 1/1", len(nacked), len(requeued))
	}
	if pt.QueuedBytes(ClassBulk) != 0 || pt.QueuedBytes(ClassLowLatency) != 0 {
		t.Fatal("queues not empty after flush")
	}
	if pt.Stats.Stale != 1 {
		t.Fatalf("stale = %d", pt.Stats.Stale)
	}
}

func TestPortDynamicResolveNil(t *testing.T) {
	// A dark circuit (self-loop) swallows the packet.
	eng := eventsim.New()
	cfg := testConfig()
	pt := NewDynamicPort(eng, &cfg, "t", func(eventsim.Time) Node { return nil })
	var dropped int
	pt.SetBulkDropHandler(func(p *Packet) { dropped++; p.Release() })
	b := mkData(1500, ClassBulk)
	b.Kind = KindBulk
	pt.Enqueue(b)
	pt.Enqueue(mkData(1500, ClassLowLatency))
	eng.Run()
	if dropped != 1 {
		t.Fatalf("bulk to dark port should hit the drop handler, got %d", dropped)
	}
}

func TestPortBackToBackThroughput(t *testing.T) {
	eng := eventsim.New()
	cfg := testConfig()
	cfg.DataQueueBytes = 1 << 20 // deep queue: this test measures pacing
	sink := &sinkNode{eng: eng}
	pt := NewPort(eng, &cfg, "t", sink)
	for i := 0; i < 100; i++ {
		pt.Enqueue(mkData(1500, ClassLowLatency))
	}
	eng.Run()
	if len(sink.pkts) != 100 {
		t.Fatalf("delivered %d", len(sink.pkts))
	}
	// 100 × 1200 ns serialization + 500 ns propagation.
	want := eventsim.Time(100*1200 + 500)
	if got := sink.times[99]; got != want {
		t.Fatalf("last arrival %v, want %v", got, want)
	}
	if pt.Stats.Tx[ClassLowLatency].Packets != 100 {
		t.Fatalf("tx counter = %d", pt.Stats.Tx[ClassLowLatency].Packets)
	}
}

func TestConfigSerialization(t *testing.T) {
	cfg := testConfig()
	if d := cfg.SerializationDelay(1500); d != 1200 {
		t.Fatalf("1500B at 10G = %v, want 1200ns", d)
	}
	if n := cfg.BytesIn(1200); n != 1500 {
		t.Fatalf("BytesIn(1200ns) = %d, want 1500", n)
	}
	if cfg.BytesIn(-5) != 0 {
		t.Fatal("negative duration should carry 0 bytes")
	}
}

func TestMetricsTax(t *testing.T) {
	m := NewMetrics()
	f := &Flow{ID: 1, Size: 3000, Class: ClassLowLatency}
	m.AddFlow(f)
	m.RecordDelivery(f, 1500, 2, 0) // 2 hops: 100% tax on these bytes
	m.RecordDelivery(f, 1500, 1, 0) // direct
	tax := m.BandwidthTax(ClassLowLatency)
	if tax < 0.49 || tax > 0.51 {
		t.Fatalf("tax = %v, want 0.5", tax)
	}
	if m.AggregateTax() != tax {
		t.Fatalf("aggregate tax mismatch")
	}
	m.FlowDone(f, 100)
	m.FlowDone(f, 200) // idempotent
	if f.End != 100 {
		t.Fatalf("End = %v", f.End)
	}
	done, total := m.DoneCount()
	if done != 1 || total != 1 {
		t.Fatalf("done=%d total=%d", done, total)
	}
}

func TestPacketPool(t *testing.T) {
	p := NewPacket()
	p.Flow = &Flow{ID: 42}
	p.Hops = 3
	p.Release()
	q := NewPacket()
	// Pool may or may not reuse; fields must be zeroed either way.
	if q.Flow != nil || q.Hops != 0 || q.SliceTag != -1 || q.RelayRack != -1 {
		t.Fatalf("pool packet not reset: %+v", q)
	}
	q.Release()
}

// TestPacketAndFlowSize pins both per-packet and per-flow records to the
// 96-byte size class: one more word moves either to 112 bytes, paid by
// every pooled packet and every flow of a soak.
func TestPacketAndFlowSize(t *testing.T) {
	if got := unsafe.Sizeof(Packet{}); got > 96 {
		t.Fatalf("unsafe.Sizeof(Packet{}) = %d, want <= 96", got)
	}
	if got := unsafe.Sizeof(Flow{}); got > 96 {
		t.Fatalf("unsafe.Sizeof(Flow{}) = %d, want <= 96", got)
	}
}

// TestHostHandle pins host demultiplexing: a claimed kind reaches its
// handler, claiming again replaces it, and an unclaimed kind is released
// without reaching anyone.
func TestHostHandle(t *testing.T) {
	cfg := testConfig()
	h := NewHost(eventsim.New(), &cfg, 0, 0)
	var got []string
	claim := func(name string) func(*Packet) {
		return func(p *Packet) { got = append(got, name+":"+p.Kind.String()); p.Release() }
	}
	h.Handle(KindData, claim("first"))
	h.Handle(KindData, claim("ndp"))
	h.Handle(KindBulk, claim("lb"))
	for _, k := range []Kind{KindData, KindBulk, KindAck, KindBulkNack, KindData} {
		p := NewPacket()
		p.Kind = k
		h.Receive(p, nil)
	}
	if want := []string{"ndp:data", "lb:bulk", "ndp:data"}; !slices.Equal(got, want) {
		t.Fatalf("handled %v, want %v", got, want)
	}
}

// A drop/NACK handler may legally route a packet straight back into the
// port being flushed (the NACK's path can pick the same uplink). The flush
// must drain a snapshot: freshly re-enqueued packets stay queued for the
// new configuration instead of being re-dropped — or chased forever.
func TestFlushForReconfigReentrancy(t *testing.T) {
	eng := eventsim.New()
	cfg := testConfig()
	sink := &sinkNode{eng: eng}
	pt := NewPort(eng, &cfg, "t", sink)
	pt.SetEnabled(false)
	var nacks int
	// NACK path that re-enqueues a control packet into this same port —
	// the §4.2.2 shape when the NACK routes back over the flushed uplink.
	pt.SetBulkDropHandler(func(p *Packet) {
		nacks++
		nack := NewPacket()
		nack.Kind = KindBulkNack
		nack.Class = ClassControl
		nack.Size = 64
		p.Release()
		pt.Enqueue(nack)
	})
	b := mkData(1500, ClassBulk)
	b.Kind = KindBulk
	pt.Enqueue(b)
	// Requeue handler that also re-enqueues into the same port (the new
	// tables picked the same uplink for a stale low-latency packet).
	pt.Enqueue(mkData(1500, ClassLowLatency))
	requeued := 0
	pt.FlushForReconfig(func(p *Packet) {
		requeued++
		if requeued > 10 {
			t.Fatal("flush is chasing its own re-enqueued packets")
		}
		pt.Enqueue(p)
	})
	if nacks != 1 {
		t.Fatalf("bulk NACKed %d times, want exactly 1 (no re-drop)", nacks)
	}
	if requeued != 1 {
		t.Fatalf("low-latency requeued %d times, want exactly 1", requeued)
	}
	// Both re-enqueued packets survived the flush, queued for the new
	// configuration.
	if pt.QueuedBytes(ClassControl) != 64 {
		t.Fatalf("ctrl bytes = %d, want the re-enqueued NACK (64)", pt.QueuedBytes(ClassControl))
	}
	if pt.QueuedBytes(ClassLowLatency) != 1500 {
		t.Fatalf("ll bytes = %d, want the requeued packet (1500)", pt.QueuedBytes(ClassLowLatency))
	}
	if pt.Stats.Stale != 1 {
		t.Fatalf("stale = %d, want 1", pt.Stats.Stale)
	}
}

// DropAll has the same re-entrancy hazard through its bulk NACK path.
func TestDropAllReentrancy(t *testing.T) {
	eng := eventsim.New()
	cfg := testConfig()
	sink := &sinkNode{eng: eng}
	pt := NewPort(eng, &cfg, "t", sink)
	pt.SetEnabled(false)
	drops := 0
	pt.SetBulkDropHandler(func(p *Packet) {
		drops++
		if drops > 10 {
			t.Fatal("DropAll re-dropping re-enqueued bulk")
		}
		requeue := NewPacket()
		requeue.Kind = KindBulk
		requeue.Class = ClassBulk
		requeue.Size = 1500
		p.Release()
		pt.Enqueue(requeue)
	})
	b := mkData(1500, ClassBulk)
	b.Kind = KindBulk
	pt.Enqueue(b)
	pt.Enqueue(mkData(1500, ClassLowLatency))
	if lost := pt.DropAll(); lost != 1 {
		t.Fatalf("lost = %d, want 1", lost)
	}
	if drops != 1 {
		t.Fatalf("bulk dropped %d times, want exactly 1", drops)
	}
	if pt.QueuedBytes(ClassBulk) != 1500 {
		t.Fatalf("bulk bytes = %d, want re-enqueued 1500", pt.QueuedBytes(ClassBulk))
	}
}

// TestPktFIFOMatchesSliceOracle pins a port's packet FIFO — a class
// queue — against a plain slice across wrap-around, growth of a wrapped
// ring, picks past empty, and flushes of a wrapped ring and its reuse
// after them, with and without a packet enqueued mid-flush. Each op
// enqueues n low-latency packets (n > 0), picks -n (n < 0), or flushes
// the port (0).
func TestPktFIFOMatchesSliceOracle(t *testing.T) {
	const drain = 0
	for _, tc := range []struct {
		name string
		ops  []int
	}{
		{"wrap without growth", []int{6, -5, 6, -7}},
		{"growth while wrapped", []int{8, -3, 10, -15}},
		{"repeated growth", []int{3, -2, 40, -20, 100, -121}},
		{"drain wrapped then reuse", []int{7, -6, 5, drain, 12, -4, drain}},
		{"drain empty", []int{drain, 2, -2, drain, 1, -1}},
		{"pop past empty", []int{2, -5, 1, -1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng := eventsim.New()
			cfg := testConfig()
			cfg.DataQueueBytes = 1 << 20
			pt := NewPort(eng, &cfg, "t", &sinkNode{eng: eng})
			pt.SetEnabled(false)
			q := &pt.q[ClassLowLatency]
			var oracle []*Packet
			seq := int32(0)
			push := func(n int) {
				for range n {
					p := mkData(100, ClassLowLatency)
					p.Seq = seq
					seq++
					pt.Enqueue(p)
					oracle = append(oracle, p)
				}
			}
			check := func(got *Packet) {
				t.Helper()
				var want *Packet
				if len(oracle) > 0 {
					want, oracle = oracle[0], oracle[1:]
				}
				if got != want {
					t.Fatalf("got %p, want %p", got, want)
				}
			}
			for _, op := range tc.ops {
				switch {
				case op > 0:
					push(op)
				case op < 0:
					for range -op {
						check(pt.pick())
					}
				default:
					ring := q.Cap()
					pt.FlushForReconfig(check)
					if q.Len() != 0 || q.Cap() != ring {
						t.Fatalf("flush left %d packets in a %d-slot ring, want none in the drained %d-slot ring", q.Len(), q.Cap(), ring)
					}
					// A packet enqueued during a flush lands in the live
					// queue, which keeps it; the snapshot still drains in
					// order.
					push(3)
					late := mkData(100, ClassLowLatency)
					pt.FlushForReconfig(func(p *Packet) {
						check(p)
						if late != nil {
							pt.Enqueue(late)
							oracle = append(oracle, late)
							late = nil
						}
					})
					check(pt.pick())
				}
				if q.Len() != len(oracle) || pt.QueuedBytes(ClassLowLatency) != 100*len(oracle) {
					t.Fatalf("queue holds %d packets and %d B, want %d", q.Len(), pt.QueuedBytes(ClassLowLatency), len(oracle))
				}
			}
		})
	}
}
