package eventsim

// tieShuffle is the tie-order oracle: a heap keyed by (time, mix(seed,
// seq)), not (time, seq). Any order of equal-time events is a legal
// execution, since an event's children are pushed only after it pops, and
// mix is a bijection of seq, so the order stays total. The heap holds a
// proxy per event, with the key as its seq and the event as its arg.
type tieShuffle struct {
	heapSched
	seed uint64
}

// NewTieShuffleScheduler returns a pending-event store that serves
// equal-time events in an order fixed by seed, not in scheduling order.
func NewTieShuffleScheduler(seed int64) Scheduler { return &tieShuffle{seed: uint64(seed)} }

// mix is the splitmix64 finalizer of seq offset by the seed: invertible.
func (s *tieShuffle) mix(seq uint64) uint64 {
	z := seq + s.seed*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (s *tieShuffle) Push(ev *Event) {
	s.heapSched.Push(&Event{at: ev.at, seq: s.mix(ev.seq), arg: ev})
}

// PushFixed is Push: like the heap, the oracle has no lane.
func (s *tieShuffle) PushFixed(ev *Event, _ Time) { s.Push(ev) }

func (s *tieShuffle) PopDue(deadline Time) *Event { return unproxy(s.heapSched.PopDue(deadline)) }

func (s *tieShuffle) Peek() *Event { return unproxy(s.heapSched.Peek()) }

func unproxy(p *Event) *Event {
	if p == nil {
		return nil
	}
	return p.arg.(*Event)
}
