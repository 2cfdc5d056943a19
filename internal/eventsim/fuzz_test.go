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

// schedPair drives a wheel and a heap with the same operations. Each side
// owns its Event objects (the wheel links through them); seq, taken in
// operation order as Engine.push and Timer.Arm take it, identifies an
// event across the two.
type schedPair struct {
	t           *testing.T
	wheel, heap Scheduler
	seq         uint64
	reserved    []Event // keys taken but not yet pushed, as Timer.Arm takes them
	now         Time
}

func (p *schedPair) same(op string, w, h *Event) *Event {
	p.t.Helper()
	switch {
	case w == nil && h == nil:
	case w == nil || h == nil:
		p.t.Fatalf("%s: wheel %v, heap %v", op, w, h)
	case w.at != h.at || w.seq != h.seq:
		p.t.Fatalf("%s: wheel {at %d seq %d}, heap {at %d seq %d}", op, w.at, w.seq, h.at, h.seq)
	}
	if wl, hl := p.wheel.Len(), p.heap.Len(); wl != hl {
		p.t.Fatalf("%s: wheel Len %d, heap Len %d", op, wl, hl)
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

func (p *schedPair) push(k Event) {
	w, h := k, k
	p.wheel.Push(&w)
	p.heap.Push(&h)
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

func (p *schedPair) pop() *Event {
	return p.served(p.same("pop", p.wheel.Pop(), p.heap.Pop()))
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
	return p.served(p.same("popDue", p.wheel.PopDue(deadline), p.heap.PopDue(deadline)))
}

// run decodes data two bytes at a time — an op and its parameter — and
// finishes by draining both schedulers.
func (p *schedPair) run(data []byte) {
	for i := 0; i+1 < len(data); i += 2 {
		arg := int(data[i+1])
		switch data[i] % 8 {
		case 0, 1, 2: // push dominates, so a backlog builds
			p.push(p.key(fuzzDeltas[arg%len(fuzzDeltas)]))
		case 3:
			if arg%4 == 0 {
				p.pop()
			} else {
				p.popDue(arg / 4)
			}
		case 4:
			p.same("peek", p.wheel.Peek(), p.heap.Peek())
		case 5:
			p.reserve(fuzzDeltas[arg%len(fuzzDeltas)])
		case 6:
			p.pushReserved(arg)
		case 7: // the clock runs ahead of the queue, as RunUntil leaves it
			if d := fuzzDeltas[arg%len(fuzzDeltas)]; d > 0 && d != MaxTime {
				p.now += d
			}
		}
	}
	for p.pop() != nil {
	}
}

// FuzzSchedulerDifferential feeds a byte stream decoded into push-δ / pop /
// pop-due / peek / reserve-δ / push-reserved / clock-jump operations to the
// wheel and the heap through the raw Scheduler interface, including pushes
// earlier than the last pop and reserved keys pushed after newer ones —
// older-seq pushes into a leaf bucket, a window slot and the overflow
// tier — and requires identical results from every Pop, PopDue, Peek and
// Len. `make fuzz` runs it for 10 s; the seeds below run in every
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
	f.Fuzz(func(t *testing.T, data []byte) {
		p := &schedPair{t: t, wheel: NewWheelScheduler(), heap: NewHeapScheduler()}
		p.run(data)
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
		p := &schedPair{t: t, wheel: NewWheelScheduler(), heap: NewHeapScheduler()}
		p.run(data)
	}
}
