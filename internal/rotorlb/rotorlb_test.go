package rotorlb

import (
	"math/rand"
	"testing"

	"github.com/opera-net/opera/internal/eventsim"
	"github.com/opera-net/opera/internal/sim"
	"github.com/opera-net/opera/internal/topology"
)

func seg(host int32, bytes int64) segment {
	return segment{f: &sim.Flow{ID: 1}, host: host, bytes: bytes}
}

func TestSegQueueCarve(t *testing.T) {
	var q segQueue
	q.push(seg(1, 4000))
	q.push(seg(2, 1000))
	if q.bytes != 5000 {
		t.Fatalf("bytes = %d", q.bytes)
	}
	c, ok := q.carve(1500)
	if !ok || c.bytes != 1500 || c.host != 1 {
		t.Fatalf("carve = %+v ok=%v", c, ok)
	}
	c, _ = q.carve(3000)
	if c.bytes != 2500 || c.host != 1 {
		t.Fatalf("second carve should drain the head segment: %+v", c)
	}
	c, _ = q.carve(1 << 40)
	if c.bytes != 1000 || c.host != 2 {
		t.Fatalf("third carve = %+v", c)
	}
	if _, ok := q.carve(1); ok {
		t.Fatal("carve from empty queue succeeded")
	}
	if q.bytes != 0 {
		t.Fatalf("residual bytes %d", q.bytes)
	}
}

func TestSegQueuePushFront(t *testing.T) {
	var q segQueue
	q.push(seg(1, 1000))
	q.pushFront(seg(9, 500)) // NACK requeue goes to the head
	c, _ := q.carve(1 << 40)
	if c.host != 9 || c.bytes != 500 {
		t.Fatalf("head = %+v, want the requeued segment", c)
	}
}

func TestSegQueuePeekHost(t *testing.T) {
	var q segQueue
	if _, ok := q.peekHost(); ok {
		t.Fatal("peek on empty queue")
	}
	q.push(segment{f: &sim.Flow{}, host: 3, bytes: 0}) // exhausted segment
	q.push(seg(7, 100))
	h, ok := q.peekHost()
	if !ok || h != 7 {
		t.Fatalf("peekHost = %d ok=%v, want 7 (skipping empty head)", h, ok)
	}
}

// sliceQueue is segQueue's oracle: the same operations on a plain slice,
// O(n) per pushFront and per drained segment but obviously right. Its
// order of service is the contract (every figure's digest depends on it),
// so it changes only when that contract is meant to.
type sliceQueue struct {
	segs  []segment
	bytes int64
}

func (q *sliceQueue) push(s segment) {
	q.segs = append(q.segs, s)
	q.bytes += s.bytes
}

func (q *sliceQueue) pushFront(s segment) {
	q.segs = append([]segment{s}, q.segs...)
	q.bytes += s.bytes
}

func (q *sliceQueue) peekHost() (int32, bool) {
	for len(q.segs) > 0 && q.segs[0].bytes == 0 {
		q.segs = q.segs[1:]
	}
	if len(q.segs) == 0 {
		return -1, false
	}
	return q.segs[0].host, true
}

func (q *sliceQueue) carve(maxBytes int64) (segment, bool) {
	return q.carveReady(maxBytes, nil)
}

func (q *sliceQueue) carveReady(maxBytes int64, ready func(host int32) bool) (segment, bool) {
	const scanLimit = 16
	scanned := 0
	for i := 0; i < len(q.segs); i++ {
		seg := &q.segs[i]
		if seg.bytes == 0 {
			continue
		}
		if ready != nil && !ready(seg.host) {
			if scanned++; scanned >= scanLimit {
				return segment{}, false
			}
			continue
		}
		n := seg.bytes
		if n > maxBytes {
			n = maxBytes
		}
		out := segment{f: seg.f, host: seg.host, bytes: n, hops: seg.hops}
		seg.bytes -= n
		q.bytes -= n
		if seg.bytes == 0 {
			q.segs = append(q.segs[:i], q.segs[i+1:]...)
		}
		return out, true
	}
	return segment{}, false
}

// genSegQueueOps returns a seeded op stream for runSegQueueOps: three
// bytes an op, alternating fill-heavy and drain-heavy phases so the ring
// grows several times, wraps, and is drained from a moved head.
func genSegQueueOps(seed int64, ops int) []byte {
	rng := rand.New(rand.NewSource(seed))
	out := make([]byte, 0, 3*ops)
	for i := 0; i < ops; i++ {
		pushy := (i/400)%2 == 0
		var op byte
		switch r := rng.Intn(8); {
		case r == 0:
			op = opPeekHost
		case (r <= 5) == pushy:
			op = opPush + byte(rng.Intn(2)) // push or pushFront
		default:
			op = opCarve + byte(rng.Intn(2)) // carve or carveReady
		}
		mask := byte(rng.Intn(256))
		if rng.Intn(2) == 0 {
			mask &= byte(rng.Intn(256)) & byte(rng.Intn(256)) // few hosts ready
		}
		out = append(out, op, byte(rng.Intn(256)), mask)
	}
	return out
}

const (
	opPush = iota
	opPushFront
	opCarve
	opCarveReady
	opPeekHost
	numOps
)

// segQueueCoverage counts the deque's awkward cases as a stream hits them.
type segQueueCoverage struct {
	growsMoved int // ring grown while head != 0
	wrapped    int // steps ending with the ring wrapped around its end
	midRemoved int // drained segment removed at logical index > 0
	bailed     int // carveReady gave up at scanLimit with a ready segment behind
}

// runSegQueueOps drives the ring deque and the slice oracle with one op
// stream and fails on the first step where any observable differs: the
// returned segment, ok, bytes, empty(), or the queued segments in order.
func runSegQueueOps(t testing.TB, ops []byte) segQueueCoverage {
	var (
		q     segQueue
		o     sliceQueue
		cov   segQueueCoverage
		flows = [4]*sim.Flow{{ID: 0}, {ID: 1}, {ID: 2}, {ID: 3}}
	)
	for step := 0; step+3 <= len(ops); step += 3 {
		op, a, b := ops[step]%numOps, ops[step+1], ops[step+2]
		var got, want segment
		var gotOK, wantOK bool
		switch op {
		case opPush, opPushFront:
			s := segment{f: flows[a>>3&3], host: int32(a & 7), hops: int8(a >> 5 & 1), bytes: int64(b) * 97}
			if b%11 == 0 {
				s.bytes = 0
			}
			if q.n == len(q.buf) && q.head != 0 {
				cov.growsMoved++
			}
			if op == opPush {
				q.push(s)
				o.push(s)
			} else {
				q.pushFront(s)
				o.pushFront(s)
			}
		case opCarve:
			max := int64(a)*200 + 1
			got, gotOK = q.carve(max)
			want, wantOK = o.carve(max)
		case opCarveReady:
			max := int64(a)*200 + 1
			ready := func(h int32) bool { return b>>uint(h)&1 == 1 }
			first := -1 // oracle index of the first ready non-empty segment
			for i, s := range o.segs {
				if s.bytes > 0 && ready(s.host) {
					first = i
					break
				}
			}
			before := len(o.segs)
			got, gotOK = q.carveReady(max, ready)
			want, wantOK = o.carveReady(max, ready)
			switch {
			case !wantOK && first >= 0:
				cov.bailed++
			case wantOK && first > 0 && len(o.segs) < before:
				cov.midRemoved++
			}
		case opPeekHost:
			got.host, gotOK = q.peekHost()
			want.host, wantOK = o.peekHost()
		}
		if got != want || gotOK != wantOK {
			t.Fatalf("step %d op %d: got %+v ok=%v, oracle %+v ok=%v", step/3, op, got, gotOK, want, wantOK)
		}
		if q.bytes != o.bytes || q.n != len(o.segs) {
			t.Fatalf("step %d op %d: bytes %d n %d, oracle %d %d", step/3, op, q.bytes, q.n, o.bytes, len(o.segs))
		}
		for i, s := range o.segs {
			if *q.at(i) != s {
				t.Fatalf("step %d op %d: segment %d = %+v, oracle %+v", step/3, op, i, *q.at(i), s)
			}
		}
		if q.head+q.n > len(q.buf) {
			cov.wrapped++
		}
	}
	return cov
}

// TestSegQueueMatchesSliceOracle is the differential test for the ring
// deque, and checks that the generated streams reach the cases that make a
// ring harder than a slice.
func TestSegQueueMatchesSliceOracle(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		c := runSegQueueOps(t, genSegQueueOps(seed, 4000))
		if c.growsMoved < 3 || c.wrapped == 0 || c.midRemoved == 0 || c.bailed == 0 {
			t.Fatalf("seed %d: the op stream misses a case: %+v", seed, c)
		}
	}
}

// FuzzSegQueue runs the same differential check over mutated op streams.
func FuzzSegQueue(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		f.Add(genSegQueueOps(seed, 1000))
	}
	f.Fuzz(func(t *testing.T, ops []byte) { runSegQueueOps(t, ops) })
}

// lbBed is an Opera fabric with RotorLB attached and its slice clock
// running, for tests that drive the agents directly.
type lbBed struct {
	eng *eventsim.Engine
	net *sim.OperaNet
	lb  *LB
}

func newLBBed(tb testing.TB, eng *eventsim.Engine, racks, hostsPer, switches int) *lbBed {
	tb.Helper()
	topo, err := topology.NewOpera(topology.Config{
		NumRacks: racks, HostsPerRack: hostsPer, NumSwitches: switches, Seed: 1,
	})
	if err != nil {
		tb.Fatal(err)
	}
	net := sim.NewOperaNet(eng, sim.DefaultConfig(), topo, 7)
	return &lbBed{eng: eng, net: net, lb: Attach(net)}
}

// bulkFlow registers a bulk flow between two hosts without starting it.
func (b *lbBed) bulkFlow(id int64, src, dst int, size int64) *sim.Flow {
	hp := b.net.HostsPerRack()
	f := &sim.Flow{
		ID: id, SrcHost: int32(src), DstHost: int32(dst),
		SrcRack: int32(src / hp), DstRack: int32(dst / hp),
		Size: size, Class: sim.ClassBulk,
	}
	b.net.Metrics().AddFlow(f)
	return f
}

// TestQueuedBytesCountsHeldVLB pins the backlog identity across a slice
// boundary that admits VLB: bytes moved from a voq into an open session's
// vlbQ are still queued, so QueuedBytes must not dip — and once every
// flow is delivered nothing is left held.
func TestQueuedBytesCountsHeldVLB(t *testing.T) {
	b := newLBBed(t, eventsim.New(), 16, 4, 4)
	// One rack pair far above the skew threshold: most of it is offered
	// to relays at the first boundary.
	size := 4 * b.lb.vlbThreshold
	f := b.bulkFlow(1, 0, 63, size)
	b.lb.StartFlow(f)
	if got := b.lb.QueuedBytes(); got != size {
		t.Fatalf("queued before the boundary = %d, want %d", got, size)
	}
	b.lb.onSlice(0) // admits VLB; no packet is sent until the engine runs
	held := b.lb.Agent(0).vlbHeld
	if held == 0 {
		t.Fatal("boundary admitted no VLB: the test exercises nothing")
	}
	if own, _ := b.lb.Agent(0).QueuedFor(15); own != size-held {
		t.Fatalf("voq holds %d, want %d - %d held", own, size, held)
	}
	if got := b.lb.QueuedBytes(); got != size {
		t.Fatalf("queued across the boundary = %d, want %d (held %d)", got, size, held)
	}
	b.net.Start()
	for b.eng.Now() < 200*eventsim.Millisecond && f.BytesRcvd < size {
		b.eng.RunUntil(b.eng.Now() + eventsim.Millisecond)
	}
	// Let the last window's sessions close.
	b.eng.RunUntil(b.eng.Now() + b.net.SliceDuration())
	if f.BytesRcvd != size {
		t.Fatalf("delivered %d of %d", f.BytesRcvd, size)
	}
	if got := b.lb.QueuedBytes(); got != 0 {
		t.Fatalf("queued after delivery = %d, want 0", got)
	}
	for r := 0; r < 16; r++ {
		if h := b.lb.Agent(r).vlbHeld; h != 0 {
			t.Fatalf("rack %d still holds %d VLB bytes", r, h)
		}
	}
}

// TestAllocsNackRequeue gates the NACK path: with 4 k segments queued,
// requeueing a NACKed packet at the head and carving it out again must not
// allocate. CI runs it via `-run 'TestAllocs'`.
func TestAllocsNackRequeue(t *testing.T) {
	b := newLBBed(t, eventsim.New(), 16, 4, 4)
	f := b.bulkFlow(1, 0, 63, 1<<40)
	a := b.lb.Agent(0)
	q := &a.voq[15]
	for i := 0; i < 4096; i++ {
		q.push(segment{f: f, host: 0, bytes: 1500})
	}
	h := b.net.Hosts()[0]
	any := func(int32) bool { return true }
	round := func() {
		p := sim.NewPacket()
		p.Kind = sim.KindBulkNack
		p.Flow = f
		p.PayloadSize = 1500
		p.PullNo = 15 // final destination rack
		p.RelayRack = -1
		p.OrigHops = 1
		b.lb.onNack(h, p)
		if seg, ok := q.carveReady(1500, any); !ok || seg.bytes != 1500 {
			t.Fatalf("carve after requeue = %+v ok=%v", seg, ok)
		}
	}
	for i := 0; i < 64; i++ {
		round() // settle the ring's capacity and the packet pool
	}
	if avg := testing.AllocsPerRun(1000, round); avg != 0 {
		t.Fatalf("NACK requeue + carve allocates %.2f/op, want 0", avg)
	}
	if q.n != 4096 || b.lb.NACKs != 64+1000+1 {
		t.Fatalf("queue holds %d segments after %d NACKs", q.n, b.lb.NACKs)
	}
}

// TestAllocsOpenSessionsIdle gates the per-slice side at paper scale: with
// no bulk traffic at all, a slice — openSessions on all 108 racks, every
// session polling through its window, and every close — must run on
// recycled state alone once one cycle has warmed the pools.
func TestAllocsOpenSessionsIdle(t *testing.T) {
	b := newLBBed(t, eventsim.New(), 108, 6, 6)
	b.net.Start()
	slice := b.net.SliceDuration()
	cycle := eventsim.Time(b.net.Topology().SlicesPerCycle()) * slice
	b.eng.RunUntil(cycle)
	oneSlice := func() { b.eng.RunUntil(b.eng.Now() + slice) }
	if avg := testing.AllocsPerRun(20, oneSlice); avg != 0 {
		t.Fatalf("an idle slice allocates %.1f/slice, want 0", avg)
	}
	if b.lb.sessions.Len() == 0 {
		t.Fatal("no session was ever released to the pool")
	}
}

// TestIdleSliceEventBudget pins what an idle fabric costs the engine at
// paper scale: the ~570 sessions of a slice wait on a handful of shared
// poll events, so a slice is a few dozen events however many racks there
// are (5,673 when every session polled on its own event).
func TestIdleSliceEventBudget(t *testing.T) {
	b := newLBBed(t, eventsim.New(), 108, 6, 6)
	b.net.Start()
	slice := b.net.SliceDuration()
	b.eng.RunUntil(eventsim.Time(b.net.Topology().SlicesPerCycle()) * slice)
	const slices = 10
	fired := b.eng.Stats().Fired
	b.eng.RunUntil(b.eng.Now() + slices*slice)
	if perSlice := float64(b.eng.Stats().Fired-fired) / slices; perSlice > 32 {
		t.Fatalf("an idle slice fires %.1f engine events, want at most 32", perSlice)
	}
}

// TestMidSliceFlowStartsOnPollGrid writes the model's polling grid down: a
// session with nothing to send looks again at windowStart + startMargin +
// k·10·txTime, so bulk admitted mid-slice while its circuit is up first
// reaches the source NIC at the next such instant — not when it is
// admitted.
func TestMidSliceFlowStartsOnPollGrid(t *testing.T) {
	for _, tc := range []struct {
		name  string
		start func(first, grid eventsim.Time) eventsim.Time // offset of the flow's start into the slice
		k     eventsim.Time
	}{
		{"before the first poll", func(first, grid eventsim.Time) eventsim.Time { return first / 2 }, 0},
		{"just after a poll", func(first, grid eventsim.Time) eventsim.Time { return first + 2*grid + 1 }, 3},
		{"between polls", func(first, grid eventsim.Time) eventsim.Time { return first + 4*grid + 4321 }, 5},
		{"just before a poll", func(first, grid eventsim.Time) eventsim.Time { return first + 6*grid - 1 }, 6},
	} {
		b := newLBBed(t, eventsim.New(), 16, 4, 4)
		b.net.Start()
		abs := int64(b.net.Topology().SlicesPerCycle()) + 3
		sliceStart := eventsim.Time(abs) * b.net.SliceDuration()
		c := b.net.ActiveCircuits(abs, 0, nil)[0]
		first, grid := c.WindowStart+startMargin, 10*b.lb.txTime
		start := sliceStart + tc.start(first, grid)
		want := sliceStart + first + tc.k*grid
		if want < start || want-start >= grid || want+b.lb.closeMargin > sliceStart+c.WindowEnd {
			t.Fatalf("%s: start %v, grid point %v, window end %v: the case is not what its name says", tc.name, start, want, c.WindowEnd)
		}

		b.eng.RunUntil(start)
		b.lb.StartFlow(b.bulkFlow(1, 0, c.Peer*b.net.HostsPerRack(), 1500))
		a := b.lb.Agent(0)
		for a.SentDirect == 0 && b.eng.Now() < sliceStart+c.WindowEnd && b.eng.Step() {
		}
		if a.SentDirect == 0 || b.eng.Now() != want {
			t.Errorf("%s: flow started at %v, first packet (sent %d B) at %v, want grid point %v",
				tc.name, start, a.SentDirect, b.eng.Now(), want)
		}
		// The idle NIC began serializing it that instant.
		b.eng.RunUntil(want + b.lb.txTime - 1)
		tx := &b.net.Hosts()[0].NIC().Stats.Tx[sim.ClassBulk]
		early := tx.Packets
		b.eng.RunUntil(want + b.lb.txTime)
		if early != 0 || tx.Packets != 1 {
			t.Errorf("%s: source NIC had sent %d bulk packets just before %v and %d at it, want 0 and 1",
				tc.name, early, want+b.lb.txTime, tx.Packets)
		}
	}
}

// TestPollBatchRunsInParkingOrder pins the batch's two promises. Sessions
// due at one instant share one engine event: when a batch fires on an idle
// fabric and every member parks again, one event is scheduled, not one per
// member. And members pump in the order they parked: two sessions of one
// rack, given data between polls in the opposite order and from the same
// host, reach that host's NIC first-parked first.
func TestPollBatchRunsInParkingOrder(t *testing.T) {
	b := newLBBed(t, eventsim.New(), 16, 4, 4)
	b.net.Start()
	abs := int64(b.net.Topology().SlicesPerCycle())
	sliceStart := eventsim.Time(abs) * b.net.SliceDuration()
	b.eng.RunUntil(sliceStart)

	// Two of rack 0's circuits with one window start: their sessions parked
	// for the same instants, the lower switch first.
	circuits := b.net.ActiveCircuits(abs, 0, nil)
	var ci, cj sim.Circuit
	for i, c := range circuits[1:] {
		if c.WindowStart == circuits[i].WindowStart {
			ci, cj = circuits[i], c
		}
	}
	if ci.Peer == cj.Peer {
		t.Fatalf("no two circuits of rack 0 share a window start: %+v", circuits)
	}
	batchAt := func(at eventsim.Time) *pollBatch {
		for _, p := range b.lb.polls {
			if p.at == at {
				return p
			}
		}
		t.Fatalf("no poll batch due at %v", at)
		return nil
	}

	g0 := sliceStart + ci.WindowStart + startMargin
	g1 := g0 + 10*b.lb.txTime
	b.eng.RunUntil(g0 - 1)
	members := len(batchAt(g0).members)
	scheduled := b.eng.Stats().Scheduled
	b.eng.Step()
	if b.eng.Now() != g0 {
		t.Fatalf("stepped to %v, want the batch at %v", b.eng.Now(), g0)
	}
	if got := b.eng.Stats().Scheduled - scheduled; got != 1 || members < 2 || len(batchAt(g1).members) != members {
		t.Fatalf("%d sessions polled at %v and parked again: %d events scheduled (want 1), %d parked for %v",
			members, g0, got, len(batchAt(g1).members), g1)
	}

	b.eng.RunUntil(g0 + 5*b.lb.txTime)
	hp := b.net.HostsPerRack()
	fj := b.bulkFlow(1, 0, cj.Peer*hp, 1500)
	fi := b.bulkFlow(2, 0, ci.Peer*hp, 1500)
	b.lb.StartFlow(fj)
	b.lb.StartFlow(fi)
	b.eng.RunUntil(sliceStart + b.net.SliceDuration())
	if !fi.Done || !fj.Done {
		t.Fatalf("flows not delivered within the slice: %+v %+v", fi, fj)
	}
	// Equal paths, so the order of arrival is the order on the shared NIC.
	if fj.End-fi.End != b.lb.txTime {
		t.Fatalf("first-parked session's flow ended at %v, second's at %v: want one serialization time apart, in parking order", fi.End, fj.End)
	}
}
