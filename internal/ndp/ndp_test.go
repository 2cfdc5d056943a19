package ndp

import (
	"slices"
	"testing"

	"github.com/opera-net/opera/internal/eventsim"
	"github.com/opera-net/opera/internal/sim"
	"github.com/opera-net/opera/internal/telemetry"
	"github.com/opera-net/opera/internal/topology"
)

// miniSwitch is a single-output bottleneck: every packet goes out one port
// toward its destination host. It models an output-queued switch port so
// NDP's trimming and incast behaviour can be tested in isolation.
type miniSwitch struct {
	ports map[int32]*sim.Port // per destination host
}

func (s *miniSwitch) Receive(p *sim.Packet, _ *sim.Port) {
	pt := s.ports[p.DstHost]
	if pt == nil {
		p.Release()
		return
	}
	pt.Enqueue(p)
}

// rig builds n hosts all attached to one switch with per-host output
// ports, NDP everywhere, on a fresh engine (newRig) or a given one
// (newRigOn).
type rig struct {
	eng     *eventsim.Engine
	cfg     sim.Config
	hosts   []*sim.Host
	sw      *miniSwitch
	metrics *sim.Metrics
	eps     []*Endpoint
}

func newRig(t *testing.T, n int, cfg sim.Config) *rig {
	t.Helper()
	return newRigOn(t, eventsim.New(), n, cfg)
}

func newRigOn(t *testing.T, eng *eventsim.Engine, n int, cfg sim.Config) *rig {
	t.Helper()
	r := &rig{
		eng:     eng,
		cfg:     cfg,
		metrics: sim.NewMetrics(),
	}
	r.sw = &miniSwitch{ports: make(map[int32]*sim.Port)}
	for i := 0; i < n; i++ {
		h := sim.NewHost(r.eng, &r.cfg, int32(i), 0)
		h.SetNIC(sim.NewPort(r.eng, &r.cfg, "up", r.sw))
		r.sw.ports[int32(i)] = sim.NewPort(r.eng, &r.cfg, "down", h)
		r.hosts = append(r.hosts, h)
	}
	r.eps = Attach(r.hosts, r.metrics).eps
	return r
}

func (r *rig) flow(id int64, src, dst int, size int64) *sim.Flow {
	f := &sim.Flow{ID: id, SrcHost: int32(src), DstHost: int32(dst), Size: size,
		Class: sim.ClassLowLatency}
	r.metrics.AddFlow(f)
	return f
}

// pooledFlow is flow in a record the rig's streaming Metrics recycles, as
// the cluster's source pump admits its NDP flows.
func (r *rig) pooledFlow(id int64, src, dst int, size int64) *sim.Flow {
	f := r.metrics.PooledFlow(sim.Flow{ID: id, SrcHost: int32(src), DstHost: int32(dst), Size: size,
		Class: sim.ClassLowLatency})
	r.metrics.AddFlow(f)
	return f
}

func TestSingleFlowCompletes(t *testing.T) {
	r := newRig(t, 2, sim.DefaultConfig())
	f := r.flow(1, 0, 1, 15000) // 10 packets
	r.eps[0].StartFlow(f)
	r.eng.RunUntil(10 * eventsim.Millisecond)
	if !f.Done {
		t.Fatalf("flow incomplete: %d/%d", f.BytesRcvd, f.Size)
	}
	// 10 packets over 2 serializations: ≥ 10 × 1.2 µs; the pull-paced tail
	// adds a little. Must be well under 100 µs on an idle path.
	if fct := f.FCT(); fct < 12*eventsim.Microsecond || fct > 100*eventsim.Microsecond {
		t.Fatalf("FCT = %v", fct)
	}
	if f.Retransmits != 0 {
		t.Fatalf("retransmits on clean path: %d", f.Retransmits)
	}
}

func TestTinyFlowSinglePacket(t *testing.T) {
	r := newRig(t, 2, sim.DefaultConfig())
	f := r.flow(1, 0, 1, 64)
	r.eps[0].StartFlow(f)
	r.eng.RunUntil(1 * eventsim.Millisecond)
	if !f.Done {
		t.Fatal("single-packet flow incomplete")
	}
}

func TestIncastTrimsAndCompletes(t *testing.T) {
	// 8 senders blast one receiver: initial windows overflow the 12 KB
	// data queue, headers survive, NACKs trigger retransmits, PULL pacing
	// drains everything at line rate.
	r := newRig(t, 9, sim.DefaultConfig())
	var flows []*sim.Flow
	for i := 1; i <= 8; i++ {
		f := r.flow(int64(i), i, 0, 45000) // 30 packets each
		flows = append(flows, f)
	}
	for i, f := range flows {
		_ = i
		r.eps[f.SrcHost].StartFlow(f)
	}
	r.eng.RunUntil(50 * eventsim.Millisecond)
	var retrans int
	for _, f := range flows {
		if !f.Done {
			t.Fatalf("incast flow %d incomplete (%d/%d)", f.ID, f.BytesRcvd, f.Size)
		}
		retrans += f.Retransmits
	}
	if retrans == 0 {
		t.Fatal("incast should have trimmed and retransmitted")
	}
	// Total 240 packets ≈ 360 KB at 10 Gb/s ≈ 288 µs minimum through the
	// single downlink; completion should be within a small factor.
	for _, f := range flows {
		if f.FCT() > 2*eventsim.Millisecond {
			t.Fatalf("flow %d FCT %v too slow", f.ID, f.FCT())
		}
	}
}

func TestHeaderLossRecoveredByRTO(t *testing.T) {
	cfg := sim.DefaultConfig()
	cfg.DataQueueBytes = 3000  // trims quickly
	cfg.HeaderQueueBytes = 128 // and drops most headers
	r := newRig(t, 3, cfg)
	f1 := r.flow(1, 1, 0, 30000)
	f2 := r.flow(2, 2, 0, 30000)
	r.eps[1].StartFlow(f1)
	r.eps[2].StartFlow(f2)
	r.eng.RunUntil(100 * eventsim.Millisecond)
	if !f1.Done || !f2.Done {
		t.Fatalf("flows incomplete despite RTO: %v/%v", f1.Done, f2.Done)
	}
}

func TestReceiverCompletionTimeIsUsed(t *testing.T) {
	r := newRig(t, 2, sim.DefaultConfig())
	f := r.flow(1, 0, 1, 1500)
	r.eps[0].StartFlow(f)
	r.eng.RunUntil(1 * eventsim.Millisecond)
	// End must be after Start by at least two serializations + two props.
	min := 2*r.cfg.SerializationDelay(1500) + 2*r.cfg.PropDelay
	if f.End-f.Start < min {
		t.Fatalf("FCT %v below physical minimum %v", f.End-f.Start, min)
	}
}

func TestStartFlowWrongHostPanics(t *testing.T) {
	r := newRig(t, 2, sim.DefaultConfig())
	f := r.flow(1, 0, 1, 1500)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for wrong-host StartFlow")
		}
	}()
	r.eps[1].StartFlow(f)
}

func TestBulkClassFlowOverNDP(t *testing.T) {
	// Static networks carry bulk-class flows over NDP: they ride the bulk
	// queue but must still complete via trimming.
	r := newRig(t, 2, sim.DefaultConfig())
	f := r.flow(1, 0, 1, 150000)
	f.Class = sim.ClassBulk
	r.eps[0].StartFlow(f)
	r.eng.RunUntil(10 * eventsim.Millisecond)
	if !f.Done {
		t.Fatal("bulk-class NDP flow incomplete")
	}
}

// streamingRig is newRig under RetainSketch: Metrics recycles the records
// of pooledFlow once they are done and unreferenced.
func streamingRig(t *testing.T, n int, cfg sim.Config) *rig {
	t.Helper()
	r := newRig(t, n, cfg)
	r.metrics.SetRetention(sim.RetainSketch(telemetry.Opts{}))
	return r
}

// TestAllocsFlowChurn is the flow-state pooling gate (CI fast lane runs it
// via -run 'TestAllocs'): one NDP flow setup/teardown round trip under
// streaming retention must not allocate, because the *sim.Flow comes back
// through Metrics' recycling and sendFlow, recvFlow, both bitmaps, the RTO
// timer and every event come from pools.
func TestAllocsFlowChurn(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation gate, nothing concurrent — skipped under -race")
	}
	r := streamingRig(t, 2, sim.DefaultConfig())
	id := int64(0)
	round := func() {
		id++
		f := r.pooledFlow(id, 0, 1, 6000) // 4 packets: inside the initial window
		r.eps[0].StartFlow(f)
		r.eng.Run()
		if !f.Done {
			t.Fatalf("flow %d incomplete", id)
		}
	}
	// Warm the pools, map buckets and telemetry bins.
	for i := 0; i < 64; i++ {
		round()
	}
	if avg := testing.AllocsPerRun(100, round); avg != 0 {
		t.Fatalf("flow churn allocates %.1f/round-trip, want 0", avg)
	}
}

// TestAllocsRetransmitChurn gates the sender's NACKed-sequence queue (CI
// fast lane, -run 'TestAllocs'): a flow whose every window is trimmed,
// NACKed and pulled again must not allocate per retransmission once warm —
// the queue is consumed through a head index, so its backing array keeps
// its capacity (re-slicing from the front leaked one slot per pull and
// made append regrow it forever).
func TestAllocsRetransmitChurn(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation gate, nothing concurrent — skipped under -race")
	}
	r := newRig(t, 2, sim.DefaultConfig())
	delete(r.sw.ports, 1) // the receiver never answers: this test plays it
	f := r.flow(1, 0, 1, 1_500_000)
	r.eps[0].StartFlow(f)
	ctrl := func(kind sim.Kind, seq int32) {
		p := sim.NewPacket()
		p.Kind, p.Class = kind, sim.ClassControl
		p.Flow, p.Seq = f, seq
		r.hosts[0].Receive(p, nil)
	}
	round := func() {
		for seq := int32(0); seq < initialWindow; seq++ {
			ctrl(sim.KindNack, seq)
		}
		for seq := int32(0); seq < initialWindow; seq++ {
			ctrl(sim.KindPull, 0)
		}
		// Let the NIC drain the retransmissions; well inside the RTO.
		r.eng.RunUntil(r.eng.Now() + 20*eventsim.Microsecond)
	}
	for i := 0; i < 16; i++ {
		round()
	}
	if avg := testing.AllocsPerRun(100, round); avg != 0 {
		t.Fatalf("retransmit churn allocates %.1f per %d retransmissions, want 0", avg, initialWindow)
	}
	if want := (16 + 101) * initialWindow; f.Retransmits != want {
		t.Fatalf("Retransmits = %d, want %d: the rig did not exercise the queue", f.Retransmits, want)
	}
}

// ticker re-arms itself every 10 µs: the traffic a fabric always has
// queued ahead of its RTOs, which stops RunUntil's trailing peek from
// draining dead RTO events early.
type ticker struct{ eng *eventsim.Engine }

func (k *ticker) OnEvent(any) { k.eng.ContinueCall(10*eventsim.Microsecond, k, nil) }

// TestAllocsRTOChurn gates the RTO's memory (CI fast lane, -run
// 'TestAllocs'): every ACK re-arms the flow's 1 ms RTO, and a re-arm must
// move the timer's one queued event, not leave a dead one behind for up to
// 1 ms. With M flows ACKed every 20 µs for 2 ms, the engine's Event objects
// — queued plus pooled — stay at M plus a few for the ports and the ticker;
// a timer that cancelled and pushed would hold about 50 per flow.
func TestAllocsRTOChurn(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation gate, nothing concurrent — skipped under -race")
	}
	const flows = 16
	r := newRig(t, 2, sim.DefaultConfig())
	delete(r.sw.ports, 1) // the receiver never answers: this test plays it
	r.eng.AfterCall(0, &ticker{r.eng}, nil)
	var fs []*sim.Flow
	for i := 0; i < flows; i++ {
		f := r.flow(int64(i+1), 0, 1, 1_500_000)
		r.eps[0].StartFlow(f)
		fs = append(fs, f)
	}
	seq := int32(0)
	round := func() {
		for _, f := range fs {
			p := sim.NewPacket()
			p.Kind, p.Class = sim.KindAck, sim.ClassControl
			p.Flow, p.Seq = f, seq
			r.hosts[0].Receive(p, nil)
		}
		seq++
		r.eng.RunUntil(r.eng.Now() + 20*eventsim.Microsecond)
	}
	for i := 0; i < 16; i++ {
		round()
	}
	if avg := testing.AllocsPerRun(100, round); avg != 0 {
		t.Fatalf("ACK-driven RTO re-arms allocate %.1f per %d ACKs, want 0", avg, flows)
	}
	st := r.eng.Stats()
	if events := st.Pending + st.FreePool; events > flows+16 {
		t.Fatalf("after %d ACKs the engine holds %d events (%d queued, %d pooled), want <= %d", flows*int(seq), events, st.Pending, st.FreePool, flows+16)
	}
	for _, f := range fs {
		if f.Retransmits != 0 || f.Done {
			t.Fatalf("flow %d: %d retransmits, done %v: an RTO fired or the rig finished it", f.ID, f.Retransmits, f.Done)
		}
	}
}

// TestFiredRTOCountsOnce: an RTO that ACKs re-armed and that then fires
// is one engine event, counted once under the timer's event row — its
// re-keys are not firings, and the flow's own handler has no row, since a
// Timer is scheduled only through Arm.
func TestFiredRTOCountsOnce(t *testing.T) {
	kinds := eventsim.CountKinds(eventsim.NewWheelScheduler())
	r := newRigOn(t, eventsim.NewWith(kinds), 2, sim.DefaultConfig())
	delete(r.sw.ports, 1) // the receiver never answers: this test plays it
	f := r.flow(1, 0, 1, 1_500_000)
	r.eps[0].StartFlow(f)
	for seq := int32(0); seq < 5; seq++ {
		p := sim.NewPacket()
		p.Kind, p.Class = sim.KindAck, sim.ClassControl
		p.Flow, p.Seq = f, seq
		r.hosts[0].Receive(p, nil)
		r.eng.RunUntil(r.eng.Now() + 20*eventsim.Microsecond)
	}
	// The last ACK armed the RTO for 1 ms after it; it fires once in
	// the next 1.5 ms and re-arms itself past them.
	r.eng.RunUntil(r.eng.Now() + rto + rto/2)
	if f.Retransmits != 1 {
		t.Fatalf("Retransmits = %d, want the one RTO resend", f.Retransmits)
	}
	rows := map[string]uint64{}
	kinds.Each(func(kind string, events uint64) { rows[kind] = events })
	if rows["*eventsim.timerEvent"] != 1 || rows["*ndp.sendFlow"] != 0 {
		t.Fatalf("event kinds %v, want one *eventsim.timerEvent and no *ndp.sendFlow", rows)
	}
}

// answers injects a duplicate data packet of flow f at its receiver and
// returns the kinds of f's control packets that come back to the sender.
func (r *rig) answers(f *sim.Flow, seq int32, trimmed bool) []sim.Kind {
	var got []sim.Kind
	src, ep := r.hosts[f.SrcHost], r.eps[f.SrcHost]
	tap := func(next func(*sim.Packet)) func(*sim.Packet) {
		return func(p *sim.Packet) {
			if p.Flow == f {
				got = append(got, p.Kind)
			}
			next(p)
		}
	}
	src.Handle(sim.KindAck, tap(ep.onAck))
	src.Handle(sim.KindNack, tap(ep.onNack))
	defer src.Handle(sim.KindAck, ep.onAck)
	defer src.Handle(sim.KindNack, ep.onNack)

	p := sim.NewPacket()
	p.Kind = sim.KindData
	p.Class = sim.ClassLowLatency
	p.SrcHost, p.DstHost = f.SrcHost, f.DstHost
	p.Size, p.PayloadSize = 1500, 1500
	if trimmed {
		p.Size, p.Trimmed = topology.DefaultHeaderBytes, true
	}
	p.Flow = f
	p.Seq = seq
	r.hosts[f.DstHost].Receive(p, nil)
	r.eng.RunUntil(r.eng.Now() + 5*eventsim.Microsecond)
	return got
}

// A released recvFlow recycled into a different flow must serve that flow
// correctly, and a straggler data packet of the released flow must still
// get its answer — ACK when whole, NACK when trimmed — without touching
// the recycled state.
func TestStragglerReACKWithPooledRecvFlow(t *testing.T) {
	r := streamingRig(t, 2, sim.DefaultConfig())
	fA := r.flow(1, 0, 1, 6000)
	r.eps[0].StartFlow(fA)
	r.eng.Run()
	if !fA.Done {
		t.Fatal("flow A incomplete")
	}
	ep1 := r.eps[1]
	if fA.RecvSlot != 0 {
		t.Fatal("streaming retention did not release flow A's receiver state")
	}
	// The released recvFlow is in the pool; flow B must draw it back out.
	pooled := ep1.pools.recv.Get()
	if pooled == nil {
		t.Fatal("flow A's recvFlow was not pooled")
	}
	ep1.pools.recv.Put(pooled)

	fB := r.flow(2, 0, 1, 30000) // 20 packets: still in flight below
	r.eps[0].StartFlow(fB)
	r.eng.RunUntil(r.eng.Now() + 5*eventsim.Microsecond)
	if got := ep1.pools.recvTab[fB.RecvSlot]; got != pooled {
		t.Fatalf("flow B's recvFlow = %p, want the pooled object %p", got, pooled)
	}

	// Stragglers: duplicates of released flow A arrive while B is in flight.
	// A whole one is re-ACKed and a trimmed one NACKed, as for any flow.
	// Neither may re-create A's state or touch B's.
	if got := r.answers(fA, 2, false); !slices.Equal(got, []sim.Kind{sim.KindAck}) {
		t.Fatalf("whole straggler of a released flow answered with %v, want one ack", got)
	}
	if got := r.answers(fA, 2, true); !slices.Equal(got, []sim.Kind{sim.KindNack}) {
		t.Fatalf("trimmed straggler of a released flow answered with %v, want one nack", got)
	}
	if fA.RecvSlot != 0 || ep1.pools.recvTab[fB.RecvSlot] != pooled {
		t.Fatal("a straggler re-created the released flow's receiver state")
	}
	r.eng.Run()
	if !fB.Done || fB.BytesRcvd != fB.Size {
		t.Fatalf("flow B corrupted by straggler: done=%v rcvd=%d/%d", fB.Done, fB.BytesRcvd, fB.Size)
	}
	if fB.RecvSlot != 0 {
		t.Fatal("flow B's state not released after completion")
	}
}

// A sender that lost every ACK of an already-delivered flow (receiver state
// released and possibly recycled) must converge through the receiver's
// stateless answers: each retransmitted packet is ACKed, and the sender's
// state reaches done and returns to the pool.
func TestStragglerRetransmitConvergesAfterRelease(t *testing.T) {
	r := streamingRig(t, 2, sim.DefaultConfig())
	fA := r.flow(1, 0, 1, 6000)
	r.eps[0].StartFlow(fA)
	r.eng.Run()
	if !fA.Done {
		t.Fatal("flow A incomplete")
	}
	ep0 := r.eps[0]
	if fA.SendSlot != 0 {
		t.Fatal("sender state not released after full ACK")
	}
	// The sender restarts the whole flow, as if no ACK had ever arrived.
	// The receiver released the flow's state and must re-ACK every packet
	// without it; the sender must converge to done.
	r.eps[0].StartFlow(fA)
	if fA.SendSlot == 0 {
		t.Fatal("restart did not create sender state")
	}
	r.eng.RunUntil(r.eng.Now() + 50*eventsim.Millisecond)
	if fA.SendSlot != 0 {
		t.Fatal("sender did not converge via straggler re-ACKs")
	}
	if ep0.pools.send.Len() == 0 {
		t.Fatal("converged sender state did not return to the pool")
	}
}

// Retention is observation: under either policy the receiver of a finished
// flow is released, and a duplicate is answered without it — ACK when
// whole, NACK when trimmed — and delivers nothing again.
func TestStragglerOfFinishedFlow(t *testing.T) {
	for _, tc := range []struct {
		name string
		rig  func(*testing.T, int, sim.Config) *rig
	}{{"RetainAll", newRig}, {"RetainSketch", streamingRig}} {
		t.Run(tc.name, func(t *testing.T) {
			r := tc.rig(t, 2, sim.DefaultConfig())
			f := r.flow(1, 0, 1, 6000)
			r.eps[0].StartFlow(f)
			r.eng.Run()
			if !f.Done || f.RecvSlot != 0 {
				t.Fatalf("done=%v, receiver slot %d: want the flow finished and its receiver released", f.Done, f.RecvSlot)
			}
			if got := r.answers(f, 2, false); !slices.Equal(got, []sim.Kind{sim.KindAck}) {
				t.Fatalf("whole duplicate answered with %v, want one ack", got)
			}
			if got := r.answers(f, 2, true); !slices.Equal(got, []sim.Kind{sim.KindNack}) {
				t.Fatalf("trimmed duplicate answered with %v, want one nack", got)
			}
			if f.BytesRcvd != f.Size || f.RecvSlot != 0 {
				t.Fatalf("duplicates were delivered again: %d/%d bytes, receiver slot %d", f.BytesRcvd, f.Size, f.RecvSlot)
			}
		})
	}
}

// Flow state goes back to the pools under RetainAll too: each of a run of
// sequential flows draws the one sender and the one receiver its
// predecessor freed.
func TestSenderReleasedUnderRetainAll(t *testing.T) {
	r := newRig(t, 2, sim.DefaultConfig())
	fb := &Fabric{eps: r.eps}
	for id := int64(1); id <= 4; id++ {
		f := r.flow(id, 0, 1, 6000)
		r.eps[0].StartFlow(f)
		r.eng.Run()
		if !f.Done || f.SendSlot != 0 || f.RecvSlot != 0 {
			t.Fatalf("flow %d: done=%v, sender slot %d, receiver slot %d; want done, both freed",
				id, f.Done, f.SendSlot, f.RecvSlot)
		}
		if got := fb.PoolStats(); got != (PoolGauges{SendFree: 1, RecvFree: 1}) {
			t.Fatalf("after flow %d: pools hold %+v, want one free sender and one free receiver", id, got)
		}
	}
	if s, r := len(r.eps[0].pools.sendTab)-1, len(r.eps[0].pools.recvTab)-1; s != 1 || r != 1 {
		t.Fatalf("%d senders and %d receivers allocated for sequential flows, want 1 each", s, r)
	}
}

// A pooled flow that completes while packets of it are still in flight —
// its final ACK, and a duplicate data packet — keeps its record until the
// last of them is released: flows admitted and finished meanwhile never
// draw it, and once nothing points at it the record is reused.
func TestStragglerHoldsPooledFlowRecord(t *testing.T) {
	r := streamingRig(t, 2, sim.DefaultConfig())
	fA := r.pooledFlow(1, 0, 1, 6000)
	r.eps[0].StartFlow(fA)
	for !fA.Done {
		if !r.eng.Step() {
			t.Fatal("engine drained before flow A completed")
		}
	}
	if fA.SendSlot == 0 {
		t.Fatal("flow A's sender was released before its final ACK arrived")
	}
	// The duplicate: a data packet of A that a slow path delivers late.
	dup := sim.NewPacket()
	dup.Kind, dup.Class = sim.KindData, sim.ClassLowLatency
	dup.SrcHost, dup.DstHost = fA.SrcHost, fA.DstHost
	dup.Size, dup.PayloadSize = 1500, 1500
	dup.Flow, dup.Seq = fA, 2
	fA.Ref()

	id := int64(1)
	admit := func() *sim.Flow {
		id++
		f := r.pooledFlow(id, 0, 1, 6000)
		if f == fA {
			t.Fatalf("flow %d drew the record of flow A while packets of A were in flight", id)
		}
		return f
	}
	// The final ACK is in flight: admit one flow now, then let it all land.
	r.eps[0].StartFlow(admit())
	r.eng.Run()
	if fA.SendSlot != 0 {
		t.Fatal("flow A's final ACK never released its sender")
	}
	// Only the duplicate holds A now.
	for i := 0; i < 8; i++ {
		f := admit()
		r.eps[0].StartFlow(f)
		r.eng.Run()
		if !f.Done {
			t.Fatalf("flow %d incomplete", f.ID)
		}
	}
	// The duplicate lands (and is re-ACKed); then A's record is free. Ten
	// records are retired by now — A, the flow admitted while its ACK flew
	// and eight more — so ten admissions draw all of them.
	r.hosts[fA.DstHost].Receive(dup, nil)
	r.eng.Run()
	reused := false
	for i := 0; i < 10; i++ {
		id++
		reused = reused || r.pooledFlow(id, 0, 1, 6000) == fA
	}
	if !reused {
		t.Fatal("flow A's record was never reused after its last packet was released")
	}
}
