package eventsim

import (
	"fmt"
	"testing"
)

// TestStatsPinnedSchedule pins every EngineStats counter across a known
// schedule: pushes, a stopped timer, partial execution, drain, and timer
// re-arms. The
// exact values are part of the observability contract — a refactor that
// changes them silently changes what /status reports.
func TestStatsPinnedSchedule(t *testing.T) {
	eng := New()

	if st := eng.Stats(); st != (EngineStats{}) {
		t.Fatalf("fresh engine stats = %+v, want zero", st)
	}

	noop := func() {}
	nop := &nopHandler{}
	var tm Timer
	tm.BindCall(eng, nop, nil)
	eng.AtCall(1*Microsecond, funcHandler(noop), nil)
	eng.AtCall(2*Microsecond, funcHandler(noop), nil)
	tm.Arm(3 * Microsecond)
	eng.AtCall(2*Millisecond, funcHandler(noop), nil) // beyond the wheel horizon: overflow tier

	st := eng.Stats()
	if st.Scheduled != 4 || st.Fired != 0 || st.Cancelled != 0 || st.Pending != 4 {
		t.Fatalf("after 4 pushes: %+v", st)
	}
	if st.Resident != 3 || st.Buckets != 3 || st.Overflow != 1 {
		t.Fatalf("wheel occupancy after 4 pushes: %+v", st.SchedStats)
	}

	tm.Stop()
	// A stopped timer's event drains lazily: still Pending until its time.
	if st = eng.Stats(); st.Pending != 4 || st.Cancelled != 0 {
		t.Fatalf("after stop, before drain: %+v", st)
	}

	eng.Step() // fires t=1µs
	eng.Step() // fires t=2µs
	eng.Step() // drains the dead t=3µs event, fires t=2ms
	st = eng.Stats()
	if st.Fired != 3 || st.Cancelled != 1 || st.Pending != 0 {
		t.Fatalf("after drain: %+v", st)
	}
	if st.SchedStats != (SchedStats{}) {
		t.Fatalf("occupancy after drain: %+v", st.SchedStats)
	}
	// All four Event objects are back in the free pool.
	if st.FreePool != 4 {
		t.Fatalf("free pool = %d, want 4", st.FreePool)
	}
	if eng.Step() {
		t.Fatal("Step on empty queue returned true")
	}

	// Re-arming a pending timer later reserves a key (Scheduled) without a
	// push (Pending); the re-keyed event is neither Fired nor Cancelled
	// until it fires at the last key.
	tm.Arm(10 * Microsecond)
	tm.Arm(20 * Microsecond)
	tm.Arm(30 * Microsecond)
	if st = eng.Stats(); st.Scheduled != 7 || st.Pending != 1 || st.FreePool != 3 {
		t.Fatalf("after three arms: %+v", st)
	}
	eng.Run()
	if st = eng.Stats(); st.Fired != 4 || st.Cancelled != 1 || st.Pending != 0 || st.FreePool != 4 {
		t.Fatalf("after the re-armed timer fired: %+v", st)
	}
	if eng.Now() != 2*Millisecond+30*Microsecond {
		t.Fatalf("timer fired at %v, want 2.03ms", eng.Now())
	}
}

// TestStatsCountLane pins the lane's share of the wheel's occupancy:
// lane events are Resident and occupy no bucket, so Resident + Overflow
// is the scheduler's Len at every step; a hop of another delay than the
// lane's takes a bucket.
func TestStatsCountLane(t *testing.T) {
	eng := New()
	nop := &nopHandler{}
	eng.ContinueFixedCall(500, nop, nil)
	eng.ContinueFixedCall(500, nop, nil)
	eng.ContinueFixedCall(700, nop, nil) // not the lane's delay: a leaf bucket
	eng.AtCall(2*Millisecond, nop, nil)  // beyond the horizon: overflow
	want := []SchedStats{
		{Resident: 3, Buckets: 1, Overflow: 1},
		{Resident: 2, Buckets: 1, Overflow: 1},
		{Resident: 1, Buckets: 1, Overflow: 1},
		{Resident: 0, Buckets: 0, Overflow: 1},
		{},
	}
	for i, w := range want {
		st := eng.Stats()
		if st.SchedStats != w || st.Resident+st.Overflow != eng.sched.Len() {
			t.Fatalf("after %d steps: occupancy %+v, Len %d, want %+v", i, st.SchedStats, eng.sched.Len(), w)
		}
		eng.Step()
	}
}

// TestStatsHeapScheduler pins the heap scheduler's occupancy convention:
// everything is overflow.
func TestStatsHeapScheduler(t *testing.T) {
	eng := NewWith(NewHeapScheduler())
	eng.AtCall(5*Microsecond, funcHandler(func() {}), nil)
	eng.AtCall(7*Microsecond, funcHandler(func() {}), nil)
	if st := eng.Stats(); st.SchedStats != (SchedStats{Overflow: 2}) {
		t.Fatalf("heap occupancy = %+v, want Overflow: 2", st.SchedStats)
	}
}

// metaSampler is a minimal periodic meta-event handler: it records the
// times it fires at and re-arms itself until a deadline, following the
// AtMetaCall contract (MetaStep first, reschedule via ContinueMetaCall).
type metaSampler struct {
	eng   *Engine
	every Time
	until Time
	fired []Time
}

func (m *metaSampler) OnEvent(any) {
	m.eng.MetaStep()
	m.fired = append(m.fired, m.eng.Now())
	if m.eng.Now()+m.every <= m.until {
		m.eng.ContinueMetaCall(m.every, m, nil)
	}
}

// TestMetaEventsInvisible asserts the observer invariant: a periodic meta
// sampler leaves Len and Steps exactly as an unobserved run would have
// them, while Stats still accounts for the meta activity separately.
func TestMetaEventsInvisible(t *testing.T) {
	run := func(observe bool) (*Engine, *metaSampler) {
		eng := New()
		fired := 0
		for i := Time(1); i <= 10; i++ {
			eng.AtCall(i*100*Microsecond, funcHandler(func() { fired++ }), nil)
		}
		var ms *metaSampler
		if observe {
			ms = &metaSampler{eng: eng, every: 100 * Microsecond, until: Millisecond}
			eng.AtMetaCall(50*Microsecond, ms, nil)
		}
		eng.RunUntil(Millisecond)
		if fired != 10 {
			t.Fatalf("fired %d simulation events, want 10", fired)
		}
		return eng, ms
	}

	plain, _ := run(false)
	observed, ms := run(true)

	if got, want := len(ms.fired), 10; got != want {
		t.Fatalf("sampler fired %d times, want %d", got, want)
	}
	if plain.Steps() != observed.Steps() {
		t.Fatalf("Steps diverged: plain %d, observed %d", plain.Steps(), observed.Steps())
	}
	if plain.Len() != observed.Len() {
		t.Fatalf("Len diverged: plain %d, observed %d", plain.Len(), observed.Len())
	}
	st := observed.Stats()
	if st.MetaFired != 10 {
		t.Fatalf("MetaFired = %d, want 10", st.MetaFired)
	}
	if st.Fired != plain.Stats().Fired {
		t.Fatalf("Fired diverged under observation: %d vs %d", st.Fired, plain.Stats().Fired)
	}
}

// kindArg is an event arg that names its own sub-kind.
type kindArg string

func (k kindArg) EventKind() string { return string(k) }

// TestCountKindsSplitsAndKeepsLane pins the two things the counting wrapper
// adds for a port's delivery hop: an arg that implements EventKinder
// splits its handler's row, and a fixed-delay hop still reaches the
// wrapped wheel's lane (it occupies no bucket), so -event-kinds measures
// the path a run without it takes.
func TestCountKindsSplitsAndKeepsLane(t *testing.T) {
	kinds := CountKinds(NewWheelScheduler())
	eng := NewWith(kinds)
	nop := &nopHandler{}
	eng.ContinueFixedCall(500, nop, kindArg("pull"))
	eng.ContinueFixedCall(500, nop, kindArg("ack"))
	eng.ContinueFixedCall(500, nop, kindArg("pull"))
	eng.AtCall(Microsecond, nop, nil)
	if st := eng.Stats().SchedStats; st != (SchedStats{Resident: 4, Buckets: 1}) {
		t.Fatalf("occupancy through the wrapper = %+v, want the three hops in the lane", st)
	}
	eng.Run()
	var got []string
	kinds.Each(func(kind string, events uint64) { got = append(got, fmt.Sprintf("%s=%d", kind, events)) })
	if want := "[*eventsim.nopHandler/pull=2 *eventsim.nopHandler=1 *eventsim.nopHandler/ack=1]"; fmt.Sprint(got) != want {
		t.Fatalf("kinds = %v, want %s", got, want)
	}
}

// TestCountKinds pins the per-kind tally: every fired event is counted
// once under its handler's type whether Step or RunUntil popped it, a
// stopped timer's dead event is not, a timer re-armed five times counts
// once (its re-keys are not firings), the rows come most-events-first, and
// the wrapped scheduler's occupancy still shows through Stats.
func TestCountKinds(t *testing.T) {
	for name, mk := range schedulers {
		kinds := CountKinds(mk())
		eng := NewWith(kinds)
		nop, rec := &nopHandler{}, &fireRecorder{e: eng}
		for i := 0; i < 5; i++ {
			eng.AtCall(Time(i)*Microsecond, rec, i)
		}
		eng.AtCall(1*Microsecond, nop, nil)
		eng.AtCall(7*Microsecond, nop, nil)
		var stopped, rearmed Timer
		stopped.BindCall(eng, nop, nil)
		stopped.Arm(2 * Microsecond)
		stopped.Stop()
		rearmed.BindCall(eng, nop, nil)
		for i := Time(1); i <= 6; i++ {
			rearmed.Arm(i * 1500 * Nanosecond) // the first arm plus five re-arms
		}
		eng.AtCall(9*Microsecond, funcHandler(func() {}), nil)
		if got, want := eng.Stats().SchedStats, kinds.Scheduler.SchedStats(); got != want || got == (SchedStats{}) {
			t.Fatalf("%s: occupancy through the wrapper = %+v, wrapped scheduler says %+v", name, got, want)
		}

		eng.Step()
		eng.RunUntil(3 * Microsecond)
		eng.Run()

		type row struct {
			kind   string
			events uint64
		}
		var got []row
		kinds.Each(func(kind string, events uint64) { got = append(got, row{kind, events}) })
		want := []row{{"*eventsim.fireRecorder", 5}, {"*eventsim.nopHandler", 2}, {"*eventsim.timerEvent", 1}, {"eventsim.funcHandler", 1}}
		if len(got) != len(want) {
			t.Fatalf("%s: kinds = %v, want %v", name, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: kinds = %v, want %v", name, got, want)
			}
		}
		if st := eng.Stats(); st.Fired != 9 || st.Cancelled != 1 || len(rec.recs) != 5 {
			t.Fatalf("%s: engine fired %+v", name, st)
		}
	}
}
