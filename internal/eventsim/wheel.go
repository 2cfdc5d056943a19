package eventsim

import "math/bits"

// wheelSched is the default Scheduler: a two-level hierarchical timing
// wheel that never compares two events to order them, backed by a
// binary-heap tier for events outside its horizon.
//
// Level 0 (leaf) is wheelSlots buckets of 1 ns — Time's resolution —
// covering the current window, the 1.024 µs span numbered cur. Level 1 is
// wheelSlots windows: slot w&wheelMask holds the events of window w for
// cur < w < cur+wheelSlots, a ≈1.05 ms horizon that keeps slice ticks and
// the 1 ms NDP RTO wheel-resident. Every bucket and slot is an intrusive
// list (Event.next), so neither Push nor PopDue allocates or moves memory;
// an occupancy bitmap per level finds the next non-empty one in O(1). The
// (time, seq) order falls out of two invariants:
//
//   - Leaf width = clock resolution. Every event in a leaf bucket has the
//     same timestamp, so a bucket kept in seq order is in (at, seq) order.
//     Pushes arrive in ascending seq, so keeping it is an append — except
//     for a timer's re-keyed event (see Scheduler), which carries an older
//     seq and is linked in by a walk from the bucket's head.
//   - Windows cascade in push order. When PopDue enters a window it deals the
//     slot's list into the leaf front to back, each event into its bucket
//     as a push would, and the slot's min is kept by (at, seq), so a
//     re-keyed event is its window's minimum whenever it should be.
//
// And one rule: cur advances only in PopDue — to the window of the event
// served; on a heap pop only when the wheel is empty, so the cursor
// tracks time through a heap-only phase. Peek moves nothing and Push never
// moves the cursor, so every engine push (at ≥ now, and now's window ≥ cur)
// lands at or ahead of the cursor: there is no rewind case.
//
// Events a full horizon ahead of the cursor (timers parked at MaxTime,
// blackout recoveries) or behind it (reachable only by pushing earlier
// than the last pop, which the engine forbids, or after a Peek-side settle
// of stale timer events ran ahead of the clock) go to the overflow heap.
// They are never migrated: PopDue and Peek compare the wheel's minimum with
// the heap's top by Event.before and serve the smaller, which keeps
// the order exact with no rebucketing pass.
//
// The fourth tier is the lane: a plain FIFO for events pushed through
// PushFixed with one fixed delay — a port's propagation hop, about half of
// all events. Its one precondition is the engine's: every lane push is at
// now + d for a clock that never goes back, under a seq that only grows,
// so the lane arrives in (at, seq) order and stays sorted by appending.
// PopDue and Peek serve the smallest of the wheel's minimum, the lane's
// head and the heap's top, as they serve the overflow tier. A push
// with another delay than the lane's takes the ordinary path; an empty
// lane adopts the delay of its next push.
type wheelSched struct {
	leaf    [wheelSlots]fifo
	slots   [wheelSlots]window
	leafOcc occupancy
	slotOcc occupancy
	cur     int64 // absolute number of the window held in leaf
	count   int   // events resident in the wheel (not lane or overflow)

	lane      fifo
	laneLen   int
	laneDelay Time

	// overflow is a concrete heapSched (not Scheduler) so its ops stay
	// devirtualized.
	overflow heapSched
}

const (
	// wheelShift makes a window 1.024 µs: 1024 leaf buckets of 1 ns.
	wheelShift = 10
	wheelSlots = 1 << wheelShift
	wheelMask  = wheelSlots - 1
	wheelWords = wheelSlots / 64
)

// fifo is an intrusive singly linked queue of events: a window slot's in
// push order (push), a leaf bucket's in seq order (insert).
type fifo struct{ head, tail *Event }

func (q *fifo) push(ev *Event) {
	if q.tail == nil {
		q.head = ev
	} else {
		q.tail.next = ev
	}
	q.tail = ev
}

// insert links ev into a queue kept in ascending seq: an append unless ev
// is older than the tail, which only a re-keyed timer event is.
func (q *fifo) insert(ev *Event) {
	if q.tail == nil || q.tail.seq < ev.seq {
		q.push(ev)
		return
	}
	if ev.seq < q.head.seq {
		ev.next = q.head
		q.head = ev
		return
	}
	p := q.head
	for p.next.seq < ev.seq {
		p = p.next
	}
	ev.next = p.next
	p.next = ev
}

// window is one level-1 slot: a window's events in push order, plus the
// minimum of them by (at, seq) so Peek into a window not yet cascaded is
// O(1).
type window struct {
	fifo
	min *Event
}

// occupancy is a wheelSlots-bit set with a one-bit-per-word summary, so
// the nearest set bit is two TrailingZeros away however sparse the set.
type occupancy struct {
	words [wheelWords]uint64
	sum   uint16 // bit i set iff words[i] != 0
}

func (o *occupancy) set(i int) {
	o.words[i>>6] |= 1 << (uint(i) & 63)
	o.sum |= 1 << uint(i>>6)
}

func (o *occupancy) clear(i int) {
	o.words[i>>6] &^= 1 << (uint(i) & 63)
	if o.words[i>>6] == 0 {
		o.sum &^= 1 << uint(i>>6)
	}
}

// first returns the lowest set bit; the set must not be empty.
func (o *occupancy) first() int {
	wi := bits.TrailingZeros16(o.sum)
	return wi<<6 + bits.TrailingZeros64(o.words[wi])
}

// after returns the nearest set bit cyclically after position p (p itself
// is the farthest candidate); the set must not be empty. Rotating the
// summary so the words after p's come first turns "nearest non-empty
// word" into a single TrailingZeros16.
func (o *occupancy) after(p int) int {
	p = (p + 1) & wheelMask
	wi := p >> 6
	if word := o.words[wi] >> (uint(p) & 63); word != 0 {
		return p + bits.TrailingZeros64(word)
	}
	// All of p's word at or above p is clear; if the rotation wraps back to
	// that word, its remaining bits are the ones below p.
	wj := (wi + 1 + bits.TrailingZeros16(bits.RotateLeft16(o.sum, -(wi+1)))) & (wheelWords - 1)
	return wj<<6 + bits.TrailingZeros64(o.words[wj])
}

func (o *occupancy) len() int {
	n := 0
	for _, word := range o.words {
		n += bits.OnesCount64(word)
	}
	return n
}

// NewWheelScheduler returns the timing-wheel pending-event store, the
// engine default.
func NewWheelScheduler() Scheduler { return &wheelSched{} }

func (w *wheelSched) Len() int { return w.count + w.laneLen + w.overflow.Len() }

// SchedStats reports wheel and lane residents, occupied leaf buckets plus
// occupied window slots, and the overflow heap's length.
func (w *wheelSched) SchedStats() SchedStats {
	return SchedStats{Resident: w.count + w.laneLen, Buckets: w.leafOcc.len() + w.slotOcc.len(), Overflow: w.overflow.Len()}
}

// PushFixed files ev, at now + d, in the lane if the lane is empty or
// holds delay d, and takes Push otherwise.
func (w *wheelSched) PushFixed(ev *Event, d Time) {
	if w.laneLen != 0 && d != w.laneDelay {
		w.Push(ev)
		return
	}
	w.laneDelay = d
	w.laneLen++
	w.lane.push(ev)
}

func (w *wheelSched) Push(ev *Event) {
	win := int64(ev.at) >> wheelShift
	// One unsigned compare rejects both sides: behind the cursor wraps to
	// a huge distance.
	d := uint64(win - w.cur)
	if d >= wheelSlots {
		w.overflow.Push(ev)
		return
	}
	w.count++
	if d == 0 {
		w.toLeaf(ev)
		return
	}
	i := int(win) & wheelMask
	s := &w.slots[i]
	if s.head == nil {
		w.slotOcc.set(i)
		s.min = ev
	} else if ev.before(s.min) {
		s.min = ev
	}
	s.push(ev)
}

// toLeaf links an event of the cursor's window into its 1 ns bucket in
// seq order.
func (w *wheelSched) toLeaf(ev *Event) {
	i := int(ev.at) & wheelMask
	if w.leaf[i].head == nil {
		w.leafOcc.set(i)
	}
	w.leaf[i].insert(ev)
}

// wheelMin returns the minimum wheel-resident event without moving
// anything, or nil if the wheel is empty.
func (w *wheelSched) wheelMin() *Event {
	if w.leafOcc.sum != 0 {
		return w.leaf[w.leafOcc.first()].head
	}
	if w.slotOcc.sum != 0 {
		return w.slots[w.slotOcc.after(int(w.cur)&wheelMask)].min
	}
	return nil
}

// The tiers min can find the minimum in.
const (
	tierWheel = iota
	tierLane
	tierOverflow
)

// min returns the minimum pending event and the tier holding it, without
// moving anything, or nil if all three tiers are empty.
func (w *wheelSched) min() (*Event, int) {
	var m *Event
	tier := tierWheel
	if h := w.lane.head; h == nil {
		m = w.wheelMin()
	} else if w.leafOcc.sum != 0 {
		// The leaf bucket's index is its time, so the lane head is
		// compared without loading the bucket's event unless they tie.
		i := w.leafOcc.first()
		if t := Time(w.cur<<wheelShift | int64(i)); h.at < t || h.at == t && h.seq < w.leaf[i].head.seq {
			m, tier = h, tierLane
		} else {
			m = w.leaf[i].head
		}
	} else if m = w.wheelMin(); m == nil || h.before(m) {
		m, tier = h, tierLane
	}
	if o := w.overflow.Peek(); o != nil && (m == nil || o.before(m)) {
		m, tier = o, tierOverflow
	}
	return m, tier
}

func (w *wheelSched) Peek() *Event {
	m, _ := w.min()
	return m
}

// PopDue tests the minimum against the deadline before anything is
// unlinked or the cursor moves: a nil return leaves the wheel as Peek
// would.
func (w *wheelSched) PopDue(deadline Time) *Event {
	m, tier := w.min()
	if m == nil || m.at > deadline {
		return nil
	}
	switch tier {
	case tierWheel:
		w.popWheel(m)
		return m
	case tierLane:
		w.lane.head = m.next
		if w.lane.head == nil {
			w.lane.tail = nil
		}
		m.next = nil
		w.laneLen--
	default:
		w.overflow.Pop()
	}
	// Served off the wheel: with the wheel empty the cursor follows time,
	// so a phase the lane or heap drives does not strand later pushes
	// behind it.
	if win := int64(m.at) >> wheelShift; w.count == 0 && win > w.cur {
		w.cur = win
	}
	return m
}

// popWheel unlinks the wheel's minimum wm, entering its window first if
// the leaf is empty.
func (w *wheelSched) popWheel(wm *Event) {
	if w.leafOcc.sum == 0 {
		w.cascade(int64(wm.at) >> wheelShift)
	}
	i := int(wm.at) & wheelMask
	b := &w.leaf[i]
	b.head = wm.next
	if b.head == nil {
		b.tail = nil
		w.leafOcc.clear(i)
	}
	// ContinueCall re-arms the popped object as is: it must not carry a
	// stale link into its next bucket.
	wm.next = nil
	w.count--
}

// cascade enters window win: the cursor moves to it and its slot's events
// are dealt into the leaf buckets in push order.
func (w *wheelSched) cascade(win int64) {
	w.cur = win
	i := int(win) & wheelMask
	s := &w.slots[i]
	ev := s.head
	*s = window{}
	w.slotOcc.clear(i)
	for ev != nil {
		next := ev.next
		ev.next = nil
		w.toLeaf(ev)
		ev = next
	}
}
