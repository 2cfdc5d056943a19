package eventsim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestEngineOrdering(t *testing.T) {
	e := New()
	var got []int
	e.At(30, func() { got = append(got, 3) })
	e.At(10, func() { got = append(got, 1) })
	e.At(20, func() { got = append(got, 2) })
	e.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if e.Now() != 30 {
		t.Fatalf("Now = %v, want 30", e.Now())
	}
}

func TestEngineFIFOTieBreak(t *testing.T) {
	e := New()
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		e.At(42, func() { got = append(got, i) })
	}
	e.Run()
	if len(got) != 100 {
		t.Fatalf("executed %d events, want 100", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time events not FIFO: got[%d] = %d", i, v)
		}
	}
}

func TestEngineRunUntil(t *testing.T) {
	e := New()
	var fired []Time
	for _, at := range []Time{10, 20, 30, 40} {
		at := at
		e.At(at, func() { fired = append(fired, at) })
	}
	e.RunUntil(25)
	if len(fired) != 2 {
		t.Fatalf("fired %d events by t=25, want 2", len(fired))
	}
	if e.Now() != 25 {
		t.Fatalf("Now = %v, want 25", e.Now())
	}
	e.Run()
	if len(fired) != 4 {
		t.Fatalf("fired %d events total, want 4", len(fired))
	}
}

func TestEngineRunFor(t *testing.T) {
	e := New()
	e.RunFor(100)
	if e.Now() != 100 {
		t.Fatalf("Now = %v, want 100", e.Now())
	}
	n := 0
	e.After(50, func() { n++ })
	e.RunFor(49)
	if n != 0 || e.Now() != 149 {
		t.Fatalf("n=%d now=%v, want 0/149", n, e.Now())
	}
	e.RunFor(1)
	if n != 1 {
		t.Fatalf("event at exact deadline did not fire")
	}
}

func TestSchedulingInsideEvents(t *testing.T) {
	e := New()
	depth := 0
	var recurse func()
	recurse = func() {
		depth++
		if depth < 10 {
			e.After(1, recurse)
		}
	}
	e.At(0, recurse)
	e.Run()
	if depth != 10 {
		t.Fatalf("depth = %d, want 10", depth)
	}
	if e.Now() != 9 {
		t.Fatalf("Now = %v, want 9", e.Now())
	}
}

func TestSchedulePastPanics(t *testing.T) {
	e := New()
	e.At(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(5, func() {})
	})
	e.Run()
}

func TestNegativeDelayPanics(t *testing.T) {
	e := New()
	defer func() {
		if recover() == nil {
			t.Error("negative delay did not panic")
		}
	}()
	e.After(-1, func() {})
}

// Property: for any batch of events with random times, execution order is a
// stable sort by time (FIFO among equal times).
func TestEventOrderProperty(t *testing.T) {
	f := func(times []uint16) bool {
		if len(times) == 0 {
			return true
		}
		e := New()
		type rec struct {
			at  Time
			seq int
		}
		var got []rec
		for i, ti := range times {
			at := Time(ti)
			i := i
			e.At(at, func() { got = append(got, rec{at, i}) })
		}
		e.Run()
		if len(got) != len(times) {
			return false
		}
		if !sort.SliceIsSorted(got, func(a, b int) bool {
			if got[a].at != got[b].at {
				return got[a].at < got[b].at
			}
			return got[a].seq < got[b].seq
		}) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTimerRearm(t *testing.T) {
	e := New()
	rec := &fireRecorder{e: e}
	var tm Timer
	tm.BindCall(e, rec, 1)
	tm.Arm(10)
	tm.Arm(20) // replaces the first schedule
	e.Run()
	if len(rec.recs) != 1 || rec.recs[0] != (fireRec{1, 20}) {
		t.Fatalf("fired %v, want once at 20", rec.recs)
	}
	if tm.ev != nil {
		t.Fatal("timer still armed after firing")
	}
}

func TestTimerStop(t *testing.T) {
	e := New()
	h := &countHandler{}
	var tm Timer
	tm.BindCall(e, h, nil)
	tm.Arm(10)
	tm.Stop()
	tm.Stop() // stopping a stopped timer is a no-op
	e.Run()
	if h.n != 0 {
		t.Fatal("stopped timer fired")
	}
	if st := e.Stats(); st.Cancelled != 1 || st.Pending != 0 {
		t.Fatalf("stopped timer's event: %+v, want one dead event drained", st)
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{500, "500ns"},
		{1500, "1.500µs"},
		{90 * Microsecond, "90.000µs"},
		{Time(10.7 * float64(Millisecond)), "10.700ms"},
		{2 * Second, "2.000000s"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("%d.String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
}

func TestDeterminism(t *testing.T) {
	run := func(seed int64) []Time {
		e := New()
		rng := rand.New(rand.NewSource(seed))
		var trace []Time
		var step func()
		step = func() {
			trace = append(trace, e.Now())
			if len(trace) < 1000 {
				e.After(Time(rng.Intn(100)), step)
			}
		}
		e.At(0, step)
		e.Run()
		return trace
	}
	a, b := run(7), run(7)
	if len(a) != len(b) {
		t.Fatal("traces differ in length")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func BenchmarkEngineScheduleAndRun(b *testing.B) {
	e := New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.After(Time(i%64), func() {})
		if e.Len() > 4096 {
			e.RunFor(64)
		}
	}
	e.Run()
}

// countHandler is a pre-bound Handler recording how it was invoked.
type countHandler struct {
	n    int
	args []any
}

func (h *countHandler) OnEvent(arg any) { h.n++; h.args = append(h.args, arg) }

func TestAtCallDeliversArg(t *testing.T) {
	e := New()
	h := &countHandler{}
	p := &struct{ x int }{42}
	e.AtCall(10, h, p)
	e.AfterCall(20, h, nil)
	e.Run()
	if h.n != 2 {
		t.Fatalf("handler ran %d times, want 2", h.n)
	}
	if h.args[0] != any(p) || h.args[1] != nil {
		t.Fatalf("args = %v, want [%p nil]", h.args, p)
	}
	if e.Now() != 20 {
		t.Fatalf("Now = %v, want 20", e.Now())
	}
}

// orderHandler appends its arg (an int index) to a shared trace.
type orderHandler struct{ got *[]int }

func (h *orderHandler) OnEvent(arg any) { *h.got = append(*h.got, arg.(int)) }

// Ties at equal times must fire in scheduling order regardless of which
// form — closure or pre-bound — scheduled them, and regardless of how much
// the event pool has churned beforehand. This is the fig08 determinism
// canary at engine level, run against every Scheduler implementation.
func TestTieOrderStableAcrossFormsAndChurn(t *testing.T) {
	for name, mk := range schedulers {
		t.Run(name, func(t *testing.T) {
			e := NewWith(mk())
			// Churn the pool: schedule, stop half as timers, run everything.
			timers := make([]Timer, 250)
			for i := range timers {
				e.After(Time(i%7), func() {})
				tm := &timers[i]
				tm.BindCall(e, &nopHandler{}, nil)
				tm.Arm(Time(i % 5))
				tm.Stop()
			}
			e.Run()
			base := e.Now()
			var got []int
			oh := &orderHandler{got: &got}
			for i := 0; i < 100; i++ {
				i := i
				if i%3 == 0 {
					e.AtCall(base+42, oh, i)
				} else {
					e.At(base+42, func() { got = append(got, i) })
				}
			}
			e.Run()
			if len(got) != 100 {
				t.Fatalf("executed %d events, want 100", len(got))
			}
			for i, v := range got {
				if v != i {
					t.Fatalf("same-time events not FIFO after churn: got[%d] = %d", i, v)
				}
			}
		})
	}
}

// A stopped timer's dead event must drain back to the free list once its
// scheduled time passes, and reuse must not resurrect the timer's callback.
func TestPoolRecycleAfterCancel(t *testing.T) {
	e := New()
	stopped := &countHandler{}
	var tm Timer
	tm.BindCall(e, stopped, nil)
	tm.Arm(10)
	dead := tm.ev
	tm.Stop()
	ran := 0
	e.At(20, func() { ran++ })
	e.Run()
	if stopped.n != 0 {
		t.Fatal("stopped timer fired")
	}
	if ran != 1 {
		t.Fatalf("live event ran %d times, want 1", ran)
	}
	// The dead slot has drained, zeroed, into the free list (white-box): a
	// new schedule reuses a pooled object and fires normally.
	if e.free.Len() == 0 || dead.h != nil {
		t.Fatal("the dead event was not recycled")
	}
	e.At(30, func() { ran++ })
	e.Run()
	if ran != 2 || stopped.n != 0 {
		t.Fatalf("recycled event: ran = %d, stopped timer fired %d", ran, stopped.n)
	}
}

// TestAllocsPooledScheduling is the engine-level allocation gate: steady-
// state closure-free scheduling must not allocate at all. (The name matches
// CI's `-run 'TestAllocs'` regression step.)
func TestAllocsPooledScheduling(t *testing.T) {
	e := New()
	h := &countHandler{}
	arg := new(int)
	// Warm the pool.
	for i := 0; i < 64; i++ {
		e.AfterCall(1, h, arg)
	}
	e.Run()
	h.args = h.args[:0]
	avg := testing.AllocsPerRun(200, func() {
		e.AfterCall(1, h, arg)
		e.Run()
		h.args = h.args[:0]
	})
	if avg != 0 {
		t.Fatalf("pooled scheduling allocates %.1f/op, want 0", avg)
	}
	// Timer arming rides the same pooled path.
	var tm Timer
	tm.BindCall(e, h, arg)
	tm.Arm(1)
	e.Run()
	avg = testing.AllocsPerRun(200, func() {
		tm.Arm(1)
		tm.Arm(2) // re-keys: the event is pushed back under (2, seq) at 1
		e.Run()
		h.args = h.args[:0]
	})
	if avg != 0 {
		t.Fatalf("Timer.Arm allocates %.1f/op, want 0", avg)
	}
}

// TestAllocsTimerRearm gates the RTO pattern itself: re-arming a pending
// timer to a later time pushes nothing — no allocation, no new scheduler
// entry — and the timer still fires once, at the last key.
func TestAllocsTimerRearm(t *testing.T) {
	e := New()
	rec := &fireRecorder{e: e, recs: make([]fireRec, 0, 1)}
	var tm Timer
	tm.BindCall(e, rec, 7)
	tm.Arm(Millisecond)
	n := e.Len()
	d := Millisecond
	avg := testing.AllocsPerRun(1000, func() {
		d++
		tm.Arm(d)
	})
	if avg != 0 {
		t.Fatalf("re-arming a pending timer allocates %.1f/op, want 0", avg)
	}
	if e.Len() != n {
		t.Fatalf("Len = %d after re-arms, want %d: a re-arm pushed", e.Len(), n)
	}
	e.Run()
	if len(rec.recs) != 1 || rec.recs[0] != (fireRec{7, d}) {
		t.Fatalf("fired %v, want once at %v", rec.recs, d)
	}
	if st := e.Stats(); st.Fired != 1 || st.Cancelled != 0 || st.Scheduled != 1002 {
		t.Fatalf("%+v: want 1 fired, 0 dead and 1002 keys (1 push, 1001 re-arms)", st)
	}
}

// TestAllocsWheelColdWindows gates the scheduler itself: with only the
// event pool warmed, pushes into 1024 windows the wheel has never touched
// and a 1000-event burst into one window must not allocate — buckets are
// intrusive lists, so there is no per-bucket storage to grow.
func TestAllocsWheelColdWindows(t *testing.T) {
	h := &nopHandler{}
	// AllocsPerRun calls its function runs+1 times; each call gets an
	// engine whose wheel has seen nothing but leaf bucket 0.
	var engines [2]*Engine
	for i := range engines {
		e := New()
		for j := 0; j < wheelSlots+1000; j++ {
			e.AtCall(0, h, nil)
		}
		e.Run()
		engines[i] = e
	}
	next := 0
	avg := testing.AllocsPerRun(len(engines)-1, func() {
		e := engines[next]
		next++
		for win := 0; win < wheelSlots; win++ {
			e.AtCall(Time(win<<wheelShift+(win*37)&wheelMask), h, nil)
		}
		for j := 0; j < 1000; j++ {
			e.AtCall(Time(500<<wheelShift+j%3), h, nil)
		}
		e.Run()
	})
	if avg != 0 {
		t.Fatalf("cold windows + same-window burst allocate %.0f, want 0", avg)
	}
	if got := engines[1].Steps(); got != 2*(wheelSlots+1000) {
		t.Fatalf("measured run fired %d events, want %d", got-wheelSlots-1000, wheelSlots+1000)
	}
}

// TestEventSize pins Event to one 64-byte size class: a ninth word puts it
// in the 80-byte class and costs every pooled event 25% more memory.
func TestEventSize(t *testing.T) {
	if got := unsafe.Sizeof(Event{}); got > 64 {
		t.Fatalf("unsafe.Sizeof(Event{}) = %d, want <= 64", got)
	}
}
