package eventsim

// heapSched is the binary-heap Scheduler: the straightforward O(log n)
// store. It has no production caller of its own. It is the wheel's tier
// for events outside its horizon, and the differential-testing oracle: its
// ordering is a direct transcription of Event.before, so the property and
// fuzz tests compare the wheel's fire sequences against it.
type heapSched struct {
	evs []*Event
}

// NewHeapScheduler returns the binary-heap pending-event store.
func NewHeapScheduler() Scheduler { return &heapSched{} }

func (h *heapSched) Len() int { return len(h.evs) }

// SchedStats counts every resident as overflow: a bare heap has no wheel
// tier, and the convention keeps "wheel vs overflow occupancy" comparable
// across scheduler choices.
func (h *heapSched) SchedStats() SchedStats { return SchedStats{Overflow: len(h.evs)} }

func (h *heapSched) Peek() *Event {
	if len(h.evs) == 0 {
		return nil
	}
	return h.evs[0]
}

func (h *heapSched) Push(ev *Event) {
	h.evs = append(h.evs, ev)
	h.up(len(h.evs) - 1)
}

// PushFixed is Push: the heap has no lane, so it stays an oracle for the
// wheel's.
func (h *heapSched) PushFixed(ev *Event, _ Time) { h.Push(ev) }

// Pop removes and returns the minimum event, nil when empty. It is not
// part of Scheduler; the wheel's overflow tier pops by it.
func (h *heapSched) Pop() *Event {
	n := len(h.evs)
	if n == 0 {
		return nil
	}
	ev := h.evs[0]
	h.evs[0] = h.evs[n-1]
	h.evs[n-1] = nil
	h.evs = h.evs[:n-1]
	if len(h.evs) > 0 {
		h.down(0)
	}
	return ev
}

func (h *heapSched) PopDue(deadline Time) *Event {
	if len(h.evs) == 0 || h.evs[0].at > deadline {
		return nil
	}
	return h.Pop()
}

// up and down are the classic sift operations, specialized to []*Event to
// avoid container/heap's interface dispatch on every comparison.
func (h *heapSched) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.evs[i].before(h.evs[parent]) {
			break
		}
		h.evs[i], h.evs[parent] = h.evs[parent], h.evs[i]
		i = parent
	}
}

func (h *heapSched) down(i int) {
	n := len(h.evs)
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && h.evs[r].before(h.evs[l]) {
			m = r
		}
		if !h.evs[m].before(h.evs[i]) {
			break
		}
		h.evs[i], h.evs[m] = h.evs[m], h.evs[i]
		i = m
	}
}
