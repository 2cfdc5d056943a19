package freelist

// Queue is a FIFO of T with a push at either end: a power-of-two ring
// that doubles when full and never shrinks, so a queue that is drained
// and refilled reuses one buffer. A popped slot is zeroed, so the ring
// pins nothing it no longer holds. The zero value is an empty queue,
// ready for use; the first push allocates 8 slots.
type Queue[T any] struct {
	buf  []T // ring; len is zero or a power of two
	head int // buf index of element 0
	n    int // elements held
}

// Len reports how many elements the queue holds.
func (q *Queue[T]) Len() int { return q.n }

// Cap reports how many elements the ring holds before it next grows.
func (q *Queue[T]) Cap() int { return len(q.buf) }

// At returns element i (0 = front), which must be below Len. The
// pointer stays valid until the next push.
func (q *Queue[T]) At(i int) *T { return &q.buf[(q.head+i)&(len(q.buf)-1)] }

// PushBack appends x.
func (q *Queue[T]) PushBack(x T) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = x
	q.n++
}

// PushFront prepends x.
func (q *Queue[T]) PushFront(x T) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.head = (q.head - 1) & (len(q.buf) - 1)
	q.buf[q.head] = x
	q.n++
}

// PopFront removes and returns the front element, or the zero T and
// false when the queue is empty.
func (q *Queue[T]) PopFront() (x T, ok bool) {
	if q.n == 0 {
		return x, false
	}
	x = q.buf[q.head]
	var zero T
	q.buf[q.head] = zero
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return x, true
}

// grow doubles the ring, unwrapping it so the front lands at index 0.
func (q *Queue[T]) grow() {
	buf := make([]T, max(8, 2*len(q.buf)))
	k := copy(buf, q.buf[q.head:])
	copy(buf[k:], q.buf[:q.head])
	q.buf, q.head = buf, 0
}
