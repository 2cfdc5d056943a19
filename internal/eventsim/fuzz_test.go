package eventsim

import (
	"math/rand"
	"testing"
)

// fuzzDeltas is what a push op may add to the harness clock: the wheel's
// structural edges, far-future times, and negative delays — a push earlier
// than the last pop, which the raw Scheduler interface allows.
var fuzzDeltas = append([]Time{
	-1, -700, -1025, -70 * Microsecond, -1200 * Microsecond,
	50 * Millisecond, MaxTime, // MaxTime: park at MaxTime itself
}, edgeDeltas...)

// fuzzLaneDelays is what a fixed-delay push may use: the propagation delay
// most of the time, so a lane builds, and otherwise a delay that ties in
// the leaf, lands in a window or parks past the horizon — a push the lane
// must refuse while it holds 500 ns events, and adopt once it is empty.
var fuzzLaneDelays = []Time{500, 500, 500, 0, 1300, 2 * Millisecond}

// schedPair drives a wheel and a heap with the same operations, and
// beside them a wheel under CountKinds, which must serve what the bare
// wheel serves and report its occupancy. Each side owns its Event objects
// (the wheel links through them); seq, taken in operation order as
// Engine.push and Timer.Arm take it, identifies an event across the sides.
type schedPair struct {
	t                  *testing.T
	wheel, heap, kinds Scheduler
	seq                uint64
	reserved           []Event // keys taken but not yet pushed, as Timer.Arm takes them
	now                Time
}

func newSchedPair(t *testing.T) *schedPair {
	return &schedPair{t: t, wheel: NewWheelScheduler(), heap: NewHeapScheduler(), kinds: CountKinds(NewWheelScheduler())}
}

// sameKey reports whether a and b are both nil or carry one (time, seq)
// key.
func sameKey(a, b *Event) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.at == b.at && a.seq == b.seq
}

// same asks every side the same question and requires one answer, one Len,
// and the bare wheel's occupancy from the counted one.
func (p *schedPair) same(op string, ask func(Scheduler) *Event) *Event {
	p.t.Helper()
	w, h, k := ask(p.wheel), ask(p.heap), ask(p.kinds)
	if !sameKey(w, h) || !sameKey(w, k) {
		p.t.Fatalf("%s: wheel %+v, heap %+v, counted wheel %+v", op, w, h, k)
	}
	if wl, hl, kl := p.wheel.Len(), p.heap.Len(), p.kinds.Len(); wl != hl || wl != kl {
		p.t.Fatalf("%s: wheel Len %d, heap Len %d, counted wheel Len %d", op, wl, hl, kl)
	}
	if ws, ks := p.wheel.SchedStats(), p.kinds.SchedStats(); ws != ks {
		p.t.Fatalf("%s: wheel occupancy %+v, counted wheel %+v", op, ws, ks)
	}
	return w
}

// key returns the next (time, seq) key d after the harness clock.
func (p *schedPair) key(d Time) Event {
	at := p.now + d
	if d == MaxTime {
		at = MaxTime
	} else if at < 0 {
		at = 0
	}
	p.seq++
	return Event{at: at, seq: p.seq}
}

func (p *schedPair) sides() [3]Scheduler { return [...]Scheduler{p.wheel, p.heap, p.kinds} }

// push hands every side its own copy of k.
func (p *schedPair) push(k Event) {
	for _, s := range p.sides() {
		ev := k
		s.Push(&ev)
	}
}

// pushFixed is a fixed-delay hop (Engine.ContinueFixedCall): the wheels
// take it through their lane, the heap as a Push. Its key is exactly now
// + d, the lane's precondition, so none is made once the clock has served
// a MaxTime park and now + d would not fit.
func (p *schedPair) pushFixed(d Time) {
	if d > MaxTime-p.now {
		return
	}
	k := p.key(d)
	for _, s := range p.sides() {
		ev := k
		s.PushFixed(&ev, d)
	}
}

// reserve takes a key now and pushes nothing: a timer re-armed while its
// event waits at an earlier key.
func (p *schedPair) reserve(d Time) { p.reserved = append(p.reserved, p.key(d)) }

// pushReserved pushes a reserved key, older than every push since it was
// taken: the re-keyed event reaching the scheduler when its old key pops.
func (p *schedPair) pushReserved(arg int) {
	if len(p.reserved) == 0 {
		return
	}
	i := arg % len(p.reserved)
	k := p.reserved[i]
	p.reserved = append(p.reserved[:i], p.reserved[i+1:]...)
	p.push(k)
}

// pop is Step's question: PopDue with no deadline.
func (p *schedPair) pop() *Event {
	return p.served(p.same("pop", func(s Scheduler) *Event { return s.PopDue(MaxTime) }))
}

// served advances the harness clock to a popped event, as firing it would.
func (p *schedPair) served(ev *Event) *Event {
	if ev != nil && ev.at > p.now {
		p.now = ev.at
	}
	return ev
}

// popDue is RunUntil's question, asked with a deadline just before, at and
// well after the minimum: too early a deadline must return nil and move
// nothing, which the ops that follow then check.
func (p *schedPair) popDue(arg int) *Event {
	deadline := MaxTime
	if min := p.heap.Peek(); min != nil {
		deadline = min.at + [...]Time{-1, 0, 1024}[arg%3]
	}
	return p.served(p.same("popDue", func(s Scheduler) *Event { return s.PopDue(deadline) }))
}

// run decodes data two bytes at a time — an op and its parameter — and
// finishes by draining every side.
func (p *schedPair) run(data []byte) {
	for i := 0; i+1 < len(data); i += 2 {
		arg := int(data[i+1])
		switch data[i] % 9 {
		case 0, 1, 2: // push dominates, so a backlog builds
			p.push(p.key(fuzzDeltas[arg%len(fuzzDeltas)]))
		case 3:
			if arg%4 == 0 {
				p.pop()
			} else {
				p.popDue(arg / 4)
			}
		case 4:
			p.same("peek", Scheduler.Peek)
		case 5:
			p.reserve(fuzzDeltas[arg%len(fuzzDeltas)])
		case 6:
			p.pushReserved(arg)
		case 7: // the clock runs ahead of the queue, as RunUntil leaves it
			if d := fuzzDeltas[arg%len(fuzzDeltas)]; d > 0 && d != MaxTime && d <= MaxTime-p.now {
				p.now += d
			}
		case 8:
			p.pushFixed(fuzzLaneDelays[arg%len(fuzzLaneDelays)])
		}
	}
	for p.pop() != nil {
	}
}

// FuzzSchedulerDifferential feeds a byte stream decoded into push-δ / pop /
// pop-due / peek / reserve-δ / push-reserved / clock-jump / fixed-delay
// push operations to the wheel, the heap and the wheel under CountKinds
// through the raw Scheduler interface, including pushes earlier than the
// last pop and reserved keys pushed after newer ones — older-seq pushes
// into a leaf bucket, a window slot and the overflow tier — and lane
// pushes, which the heap takes as Push, and requires identical results
// from every PopDue, Peek and Len, and the bare wheel's SchedStats from
// the counted one. `make fuzz` runs it for 10 s; the seeds below run in every
// `go test`.
func FuzzSchedulerDifferential(f *testing.F) {
	edge := func(d Time) byte {
		for i, v := range fuzzDeltas {
			if v == d {
				return byte(i)
			}
		}
		panic("not a fuzz delta")
	}
	// far push, peek, near push, pops: a cascading Peek would strand the near one.
	f.Add([]byte{0, edge(70 * Microsecond), 4, 0, 0, edge(500), 3, 0, 3, 0})
	// ties across a window edge, then pushes behind the cursor after popping ahead.
	f.Add([]byte{0, edge(1023), 0, edge(1024), 0, edge(1024), 0, edge(1025), 3, 0, 3, 0, 0, edge(-1025), 0, edge(-1), 0, edge(0), 3, 0, 4, 0})
	// horizon edge and a MaxTime park sharing the heap with a behind-cursor push.
	f.Add([]byte{0, edge(1_048_575), 0, edge(1_048_576), 0, edge(MaxTime), 3, 0, 0, edge(-1200 * Microsecond), 0, edge(1_048_576), 3, 0, 3, 0})
	// keys reserved into the leaf, a window and the overflow tier, pushed
	// after newer ties and after a pop, then near pushes behind the cursor.
	f.Add([]byte{5, edge(51), 5, edge(1200), 5, edge(1100 * Microsecond), 0, edge(51), 0, edge(1200), 0, edge(1100 * Microsecond), 6, 0, 6, 0, 4, 0, 3, 0, 6, 0, 0, edge(3), 7, edge(50 * Millisecond), 0, edge(0), 4, 0})
	// deadlines before, at and after the minimum, in the wheel and in the
	// overflow heap: the early ones must leave the later pops what they were.
	f.Add([]byte{0, edge(1025), 0, edge(50 * Millisecond), 3, 1, 4, 0, 3, 5, 3, 1, 3, 9, 0, edge(0), 3, 5, 3, 0})
	// two timers re-keyed to the same nanosecond, pushed in reverse
	// reservation order among pushes made in between, in the leaf and in a
	// window.
	f.Add([]byte{5, edge(500), 5, edge(500), 0, edge(500), 6, 1, 6, 0, 0, edge(500), 5, edge(1200), 5, edge(1200), 0, edge(1200), 6, 1, 6, 0, 3, 0, 3, 0, 3, 0})
	lane := func(d Time) byte {
		for i, v := range fuzzLaneDelays {
			if v == d {
				return byte(i)
			}
		}
		panic("not a lane delay")
	}
	// the lane head ties a reserved timer key: the key is older, so the
	// re-keyed event pushed after the lane's must still pop first, in the
	// leaf and in a window.
	f.Add([]byte{5, edge(500), 8, lane(500), 6, 0, 4, 0, 3, 0, 3, 0, 7, edge(51), 5, edge(500), 8, lane(500), 8, lane(500), 6, 0, 3, 4, 3, 0, 3, 0})
	// the lane head ties leaf and window events at one nanosecond,
	// interleaved by seq, and a lane push of another delay takes the
	// ordinary path meanwhile.
	f.Add([]byte{0, edge(500), 8, lane(500), 0, edge(500), 8, lane(500), 8, lane(1300), 0, edge(1200), 3, 0, 4, 0, 3, 0, 3, 0, 7, edge(1023), 8, lane(500), 0, edge(500), 8, lane(0), 3, 0, 3, 0})
	// the clock jumps 50 ms while the wheel still holds an event, so a push
	// at now + 500 overflows and ties the lane head there; then the lane
	// drains and adopts 2 ms, past the horizon, beside an overflow push.
	f.Add([]byte{0, edge(3), 7, edge(50 * Millisecond), 8, lane(500), 0, edge(500), 8, lane(500), 4, 0, 3, 0, 3, 0, 3, 0, 3, 0, 8, lane(2 * Millisecond), 0, edge(50 * Millisecond), 8, lane(500), 3, 5, 3, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		newSchedPair(t).run(data)
	})
}

// TestSchedulerDifferentialRawOps runs the fuzz harness over seeded random
// op streams, so every `go test` covers the raw-interface cases (pushes
// behind the cursor, reserved keys pushed out of seq order) at some depth
// without a fuzzing session.
func TestSchedulerDifferentialRawOps(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	streams := 3000
	if testing.Short() {
		streams = 300
	}
	for i := 0; i < streams; i++ {
		data := make([]byte, 2*(1+rng.Intn(400)))
		rng.Read(data)
		newSchedPair(t).run(data)
	}
}
