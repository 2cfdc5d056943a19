package freelist

import (
	"math/rand"
	"testing"
)

const (
	opPushBack = iota
	opPushFront
	opPop
	opDrain // pop until empty, and once more
	numQueueOps
)

// genQueueOps returns a seeded op stream for runQueueOps: two bytes an op,
// alternating fill-heavy and drain-heavy phases so the ring grows several
// times, wraps, and is drained empty and refilled.
func genQueueOps(seed int64, ops int) []byte {
	rng := rand.New(rand.NewSource(seed))
	out := make([]byte, 0, 2*ops)
	for i := 0; i < ops; i++ {
		fill := (i/100)%2 == 0
		var op byte
		switch r := rng.Intn(16); {
		case r == 0:
			op = opDrain
		case (r <= 10) == fill:
			op = opPushBack + byte(rng.Intn(2))
		default:
			op = opPop
		}
		out = append(out, op, byte(rng.Intn(256)))
	}
	return out
}

// queueCoverage counts the ring's awkward cases as a stream hits them.
type queueCoverage struct {
	growsMoved int // ring grown while its front was not at index 0
	wrapped    int // steps ending with the ring wrapped around its end
	reused     int // pushes into a ring drained empty, without growing it
}

// runQueueOps drives a Queue and a plain slice with one op stream, each op
// an opcode and a count of 1–8, and fails on the first step where they
// differ: a popped element or its ok, Len, any element read by At, a
// capacity that is not a power of two of at least 8, or a slot outside
// the live range that is not zeroed.
func runQueueOps(t testing.TB, ops []byte) queueCoverage {
	var (
		q    Queue[int]
		o    []int
		cov  queueCoverage
		next = 1
	)
	for step := 0; step+2 <= len(ops); step += 2 {
		op, n := ops[step]%numQueueOps, int(ops[step+1]%8)+1
		size, moved, emptied := len(q.buf), q.head != 0, q.n == 0 && len(q.buf) > 0
		switch op {
		case opPushBack, opPushFront:
			for range n {
				if op == opPushBack {
					q.PushBack(next)
					o = append(o, next)
				} else {
					q.PushFront(next)
					o = append([]int{next}, o...)
				}
				next++
			}
		case opPop, opDrain:
			if op == opDrain {
				n = len(o) + 1
			}
			for range n {
				got, ok := q.PopFront()
				var want int // 0 when empty: every pushed element is > 0
				if len(o) > 0 {
					want, o = o[0], o[1:]
				}
				if got != want || ok != (want != 0) {
					t.Fatalf("step %d op %d: PopFront = %d %v, oracle %d", step/2, op, got, ok, want)
				}
			}
		}
		if q.Len() != len(o) {
			t.Fatalf("step %d op %d: Len = %d, oracle %d", step/2, op, q.Len(), len(o))
		}
		if c := q.Cap(); c != len(q.buf) || c < len(o) || c != 0 && (c < 8 || c&(c-1) != 0) {
			t.Fatalf("step %d op %d: Cap = %d holding %d", step/2, op, c, len(o))
		}
		for i, want := range o {
			if got := *q.At(i); got != want {
				t.Fatalf("step %d op %d: At(%d) = %d, oracle %d", step/2, op, i, got, want)
			}
		}
		for i := q.n; i < len(q.buf); i++ {
			if v := q.buf[(q.head+i)&(len(q.buf)-1)]; v != 0 {
				t.Fatalf("step %d op %d: free slot %d still holds %d", step/2, op, i, v)
			}
		}
		if len(q.buf) > size && moved {
			cov.growsMoved++
		}
		if emptied && q.n > 0 && len(q.buf) == size {
			cov.reused++
		}
		if q.head+q.n > len(q.buf) {
			cov.wrapped++
		}
	}
	return cov
}

// TestQueueMatchesSliceOracle is the differential test for the ring, and
// checks that the generated streams reach the cases that make a ring
// harder than a slice.
func TestQueueMatchesSliceOracle(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		c := runQueueOps(t, genQueueOps(seed, 2000))
		if c.growsMoved == 0 || c.wrapped == 0 || c.reused == 0 {
			t.Fatalf("seed %d: the op stream misses a case: %+v", seed, c)
		}
	}
}

// FuzzQueue runs the same differential check over mutated op streams.
func FuzzQueue(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		f.Add(genQueueOps(seed, 500))
	}
	f.Fuzz(func(t *testing.T, ops []byte) { runQueueOps(t, ops) })
}
