package sim

import (
	"testing"

	"github.com/opera-net/opera/internal/eventsim"
	"github.com/opera-net/opera/internal/topology"
)

// TestAllocsPortEnqueueRoundTrip enforces the zero-alloc packet hot path:
// one enqueue–serialize–propagate–deliver round trip through a port must
// average ≤2 allocations (the PR-3 baseline was 4: two event objects and
// two closures per packet). The budget of 2 absorbs rare packet-pool misses
// (sync.Pool is cleared by GC); the steady-state count is 0. CI runs this
// via `-run 'TestAllocs'` on every PR.
func TestAllocsPortEnqueueRoundTrip(t *testing.T) {
	eng := eventsim.New()
	cfg := DefaultConfig()
	pt := NewPort(eng, &cfg, "alloc", drainNode{})
	step := cfg.SerializationDelay(cfg.MTU) + cfg.PropDelay
	send := func() {
		p := NewPacket()
		p.Kind = KindData
		p.Class = ClassLowLatency
		p.Size = int32(cfg.MTU)
		p.PayloadSize = int32(cfg.MTU)
		pt.Enqueue(p)
		eng.RunUntil(eng.Now() + step)
	}
	// Warm the event free list and the packet pool.
	for i := 0; i < 64; i++ {
		send()
	}
	if avg := testing.AllocsPerRun(200, send); avg > 2 {
		t.Fatalf("enqueue–transmit round trip allocates %.1f/op, want <= 2", avg)
	}
}

// TestAllocsBulkDropPath keeps the overflow NACK trigger allocation-lean
// too: a bulk drop hands the packet to the handler without any event
// scheduling of its own.
func TestAllocsBulkDropPath(t *testing.T) {
	eng := eventsim.New()
	cfg := DefaultConfig()
	cfg.BulkQueueBytes = 0 // every bulk arrival overflows
	pt := NewPort(eng, &cfg, "alloc", drainNode{})
	pt.SetEnabled(false)
	pt.SetBulkDropHandler(func(p *Packet) { p.Release() })
	send := func() {
		p := NewPacket()
		p.Kind = KindBulk
		p.Class = ClassBulk
		p.Size = int32(cfg.MTU)
		p.PayloadSize = int32(cfg.MTU)
		pt.Enqueue(p)
	}
	for i := 0; i < 64; i++ {
		send()
	}
	if avg := testing.AllocsPerRun(200, send); avg > 1 {
		t.Fatalf("bulk drop path allocates %.1f/op, want <= 1", avg)
	}
}

// TestAllocsFlushCycle pins the reconfiguration flush path: a non-empty
// port flushed twice per slice must not shed and regrow its ring buffers —
// drained snapshots hand their backing arrays back to the live queues.
func TestAllocsFlushCycle(t *testing.T) {
	eng := eventsim.New()
	cfg := DefaultConfig()
	pt := NewPort(eng, &cfg, "alloc", drainNode{})
	pt.SetEnabled(false)
	pt.SetBulkDropHandler(func(p *Packet) { p.Release() })
	cycle := func() {
		for i := 0; i < 3; i++ {
			p := NewPacket()
			p.Kind = KindBulk
			p.Class = ClassBulk
			p.Size = int32(cfg.MTU)
			p.PayloadSize = int32(cfg.MTU)
			pt.Enqueue(p)
			q := NewPacket()
			q.Kind = KindData
			q.Class = ClassLowLatency
			q.Size = int32(cfg.MTU)
			q.PayloadSize = int32(cfg.MTU)
			pt.Enqueue(q)
		}
		pt.FlushForReconfig(func(p *Packet) { p.Release() })
	}
	for i := 0; i < 16; i++ {
		cycle()
	}
	if avg := testing.AllocsPerRun(100, cycle); avg > 1 {
		t.Fatalf("flush cycle allocates %.1f/op, want <= 1", avg)
	}
}

// TestAllocsClosCrossPod holds the Clos's forwarding to the Port
// round-trip budget: a packet from a ToR to a host in another pod — ToR →
// agg → core → agg → ToR → host, five port round trips and five switch
// decisions, two of them ECMP draws — averages ≤ 2 allocations (steady
// state 0), so switching adds none of its own.
func TestAllocsClosCrossPod(t *testing.T) {
	eng := eventsim.New()
	topo := topology.MustNewFoldedClos(8, 3)
	n := NewClosNet(eng, DefaultConfig(), topo, 1)
	src, dst := 0, topo.NumToRs-1 // pods 0 and 7
	delivered := 0
	n.Hosts()[dst*topo.HostsPerToR].Handle(KindData, func(p *Packet) {
		delivered++
		p.Release()
	})
	send := func() {
		p := NewPacket()
		p.Kind = KindData
		p.Class = ClassLowLatency
		p.Size = int32(n.cfg.MTU)
		p.PayloadSize = int32(n.cfg.MTU)
		p.SrcRack, p.DstRack = int32(src), int32(dst)
		p.DstHost = int32(dst * topo.HostsPerToR)
		n.sw[src].Receive(p, nil)
		eng.Run()
	}
	for i := 0; i < 64; i++ {
		send()
	}
	if delivered != 64 {
		t.Fatalf("%d of 64 packets delivered", delivered)
	}
	if avg := testing.AllocsPerRun(200, send); avg > 2 {
		t.Fatalf("cross-pod packet allocates %.1f/op, want <= 2", avg)
	}
}
