package eventsim

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

// schedulers enumerates every Scheduler implementation; ordering-sensitive
// tests run against each, and the differential tests compare them pairwise.
var schedulers = map[string]func() Scheduler{
	"wheel": NewWheelScheduler,
	"heap":  NewHeapScheduler,
}

// fireRec is one observed callback invocation.
type fireRec struct {
	id int
	at Time
}

type fireRecorder struct {
	e    *Engine
	recs []fireRec
}

func (r *fireRecorder) OnEvent(arg any) {
	r.recs = append(r.recs, fireRec{arg.(int), r.e.Now()})
}

// runSchedWorkload drives one seeded schedule/stop/re-arm workload —
// equal-time ties, dense bursts, horizon-crossing and MaxTime-parked
// events, timers stopped and re-armed later or earlier — and returns the
// exact fire sequence.
func runSchedWorkload(mk func() Scheduler, seed int64) []fireRec {
	e := NewWith(mk())
	rng := rand.New(rand.NewSource(seed))
	rec := &fireRecorder{e: e}
	var pending []*Timer
	id := 0
	delay := func() Time {
		switch rng.Intn(8) {
		case 0:
			return 0 // tie with anything else scheduled this instant
		case 1, 2:
			return Time(rng.Intn(64)) // intra-bucket dense
		case 3, 4:
			return Time(rng.Intn(4096)) // a few buckets out
		case 5:
			return Time(rng.Intn(2_000_000)) // straddles the wheel horizon
		case 6:
			return Time(rng.Intn(80_000_000)) // far future: overflow tier
		default:
			return MaxTime - e.Now() // parked timer
		}
	}
	for round := 0; round < 30; round++ {
		for i, n := 0, rng.Intn(24); i < n; i++ {
			tm := new(Timer)
			tm.BindCall(e, rec, id)
			tm.Arm(delay())
			pending = append(pending, tm)
			id++
		}
		// Stop some armed timers and re-arm as many, to a fresh delay that
		// may be later (a re-key) or earlier (a push) than their queued
		// event — the RTO's churn.
		for i := 0; i < len(pending)/5; i++ {
			j := rng.Intn(len(pending))
			if rng.Intn(2) == 0 {
				pending[j].Arm(delay())
				continue
			}
			pending[j].Stop()
			pending[j] = pending[len(pending)-1]
			pending = pending[:len(pending)-1]
		}
		e.RunUntil(e.Now() + Time(rng.Intn(3_000_000)))
		// Drop the timers that fired.
		live := pending[:0]
		for _, tm := range pending {
			if tm.ev != nil {
				live = append(live, tm)
			}
		}
		pending = live
	}
	e.Run()
	return rec.recs
}

// The differential property: for any seeded workload, heap and wheel must
// produce byte-for-byte identical fire sequences — same callbacks, same
// order, same virtual times. This is the engine-level guarantee behind the
// figure CSVs' byte-identity across scheduler implementations.
func TestSchedulerDifferentialProperty(t *testing.T) {
	f := func(seed int64) bool {
		h := runSchedWorkload(NewHeapScheduler, seed)
		w := runSchedWorkload(NewWheelScheduler, seed)
		if len(h) != len(w) {
			t.Logf("seed %d: heap fired %d, wheel fired %d", seed, len(h), len(w))
			return false
		}
		for i := range h {
			if h[i] != w[i] {
				t.Logf("seed %d: diverge at %d: heap %+v, wheel %+v", seed, i, h[i], w[i])
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 60}
	if testing.Short() {
		cfg.MaxCount = 15
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// edgeDeltas are the delays that sit on the wheel's structural edges:
// same-ns ties, both sides of a window boundary (1024 ns) and of the
// horizon (1,048,576 ns), and a slice-tick-sized hop in between.
var edgeDeltas = []Time{
	0, 3, 51, 500, 1023, 1024, 1025, 1200, 70 * Microsecond,
	1_048_575, 1_048_576, 1100 * Microsecond,
}

// denseBed is the shared state of one runDenseWorkload run.
type denseBed struct {
	fireRecorder
	rng *rand.Rand
	// rearm bumps a chain's timer: Timer.Arm, or eagerArm for the oracle.
	rearm func(*Timer, Time)
}

// denseChain is one self-rescheduling chain: each hop draws an edge delay
// and re-arms through ContinueCall or AfterCall. A chain with a timer also
// bumps it to 1 ms per hop, the NDP RTO's re-arm churn; the timer fires
// (and is recorded) only once its chain has ended.
type denseChain struct {
	bed  *denseBed
	id   int
	hops int
	rto  *Timer
}

func (c *denseChain) OnEvent(any) {
	b := c.bed
	b.OnEvent(c.id)
	if c.rto != nil {
		b.rearm(c.rto, Millisecond)
	}
	if c.hops == 0 {
		return
	}
	c.hops--
	d := edgeDeltas[b.rng.Intn(len(edgeDeltas))]
	if b.rng.Intn(2) == 0 {
		b.e.ContinueCall(d, c, nil)
	} else {
		b.e.AfterCall(d, c, nil)
	}
}

// runDenseWorkload is runSchedWorkload at the occupancy a fabric run has:
// 320 concurrent chains, so a window holds hundreds of events and most
// pushes tie with or interleave among residents. Every timerEvery-th chain
// carries a timer that rearm bumps. Between RunUntil calls it schedules
// from outside — as a source pump or AddFlow does — before, at and after
// the event RunUntil's trailing peek saw.
func runDenseWorkload(mk func() Scheduler, seed int64, timerEvery int, rearm func(*Timer, Time)) ([]fireRec, EngineStats) {
	e := NewWith(mk())
	bed := &denseBed{fireRecorder: fireRecorder{e: e}, rng: rand.New(rand.NewSource(seed)), rearm: rearm}
	const chains, hops = 320, 40
	for id := 0; id < chains; id++ {
		c := &denseChain{bed: bed, id: id, hops: hops}
		if id%timerEvery == 0 {
			c.rto = new(Timer)
			c.rto.BindCall(e, bed, chains+id)
		}
		e.AfterCall(Time(bed.rng.Intn(2048)), c, nil)
	}
	outside := 2 * chains
	for round := 0; round < 200 && e.Len() > 0; round++ {
		e.RunUntil(e.Now() + Time(bed.rng.Intn(300_000)))
		next := e.peek()
		if next == nil {
			break
		}
		now, seen := e.Now(), next.at
		for _, at := range []Time{now, now + (seen-now)/2, seen, seen + 1, seen + 1024} {
			e.AtCall(at, bed, outside)
			outside++
		}
	}
	e.Run()
	return bed.recs, e.Stats()
}

// rekeyCounter counts the pushes that arrive older than the newest seq
// pushed before them: the re-keyed timer events the wheel must link into a
// bucket rather than append.
type rekeyCounter struct {
	Scheduler
	newest uint64
	rekeys int
}

func (r *rekeyCounter) Push(ev *Event) {
	if ev.seq < r.newest {
		r.rekeys++
	} else {
		r.newest = ev.seq
	}
	r.Scheduler.Push(ev)
}

// armTimer is the production re-arm, as a rearm func.
func armTimer(t *Timer, d Time) { t.Arm(d) }

// eagerArm is the cancel-and-push re-arm the one-event Timer replaced:
// the queued event is left dead and a fresh one is pushed every time. It
// is the oracle TestTimerRekeyMatchesEagerRearm holds Arm to.
func eagerArm(t *Timer, d Time) {
	t.Stop()
	t.Arm(d)
}

// The dense differential: heap and wheel fire identically and agree on the
// engine's counters.
func TestSchedulerDifferentialDense(t *testing.T) {
	seeds := []int64{1, 2, 3, 5, 8, 13}
	if testing.Short() {
		seeds = seeds[:2]
	}
	for _, seed := range seeds {
		h, hs := runDenseWorkload(NewHeapScheduler, seed, 4, armTimer)
		wheel := &rekeyCounter{Scheduler: NewWheelScheduler()}
		w, ws := runDenseWorkload(func() Scheduler { return wheel }, seed, 4, armTimer)
		if len(h) != len(w) {
			t.Fatalf("seed %d: heap fired %d, wheel fired %d", seed, len(h), len(w))
		}
		for i := range h {
			if h[i] != w[i] {
				t.Fatalf("seed %d: diverge at %d: heap %+v, wheel %+v", seed, i, h[i], w[i])
			}
		}
		if hs.Scheduled != ws.Scheduled || hs.Fired != ws.Fired || hs.Cancelled != ws.Cancelled {
			t.Fatalf("seed %d: counters diverge: heap %+v, wheel %+v", seed, hs, ws)
		}
		if wheel.rekeys == 0 || ws.Fired < 320*40 {
			t.Fatalf("seed %d: workload too thin: %d re-keys, %+v", seed, wheel.rekeys, ws)
		}
	}
}

// TestTimerRekeyMatchesEagerRearm holds the one-event Timer to the
// cancel-and-push timer it replaced (eagerArm): on the dense workload with
// a timer on every chain, and on each scripted corner, the fire records,
// Steps and Scheduled must be identical — a re-key fires at exactly the
// (time, seq) the fresh push would have had.
func TestTimerRekeyMatchesEagerRearm(t *testing.T) {
	type outcome struct {
		recs        []fireRec
		steps, keys uint64
	}
	// same requires got to match want: the one-event timer against the
	// eager one, and the eager one against a script's expected fires.
	same := func(t *testing.T, name string, want, got outcome) {
		t.Helper()
		if len(want.recs) == 0 {
			t.Fatalf("%s: nothing fired", name)
		}
		if len(want.recs) != len(got.recs) {
			t.Fatalf("%s: want %d fired, got %d", name, len(want.recs), len(got.recs))
		}
		for i := range want.recs {
			if want.recs[i] != got.recs[i] {
				t.Fatalf("%s: diverge at %d: want %+v, got %+v", name, i, want.recs[i], got.recs[i])
			}
		}
		if want.steps != got.steps || want.keys != got.keys {
			t.Fatalf("%s: want %d steps / %d keys, got %d / %d", name, want.steps, want.keys, got.steps, got.keys)
		}
	}
	for name, mk := range schedulers {
		for _, seed := range []int64{1, 2, 3} {
			run := func(arm func(*Timer, Time)) outcome {
				recs, st := runDenseWorkload(mk, seed, 1, arm)
				return outcome{recs, st.Fired, st.Scheduled}
			}
			same(t, fmt.Sprintf("%s dense seed %d", name, seed), run(eagerArm), run(armTimer))
		}
	}

	// Each script drives one engine through a corner with the re-arm under
	// test; rec records the timer's firings (arg 1 or 5) among plain events,
	// and both re-arms must fire want.
	scripts := []struct {
		name string
		want []fireRec
		run  func(e *Engine, rec *fireRecorder, arm func(*Timer, Time))
	}{
		{"stop-then-arm", []fireRec{{2, 100}, {1, 100}}, func(e *Engine, rec *fireRecorder, arm func(*Timer, Time)) {
			var tm Timer
			tm.BindCall(e, rec, 1)
			arm(&tm, 100)
			e.AtCall(100, rec, 2)
			e.RunFor(10)
			tm.Stop()
			arm(&tm, 90) // the same instant as the dead event, a newer seq
			e.Run()
		}},
		{"earlier", []fireRec{{2, 40}, {1, 40}, {3, Millisecond}}, func(e *Engine, rec *fireRecorder, arm func(*Timer, Time)) {
			var tm Timer
			tm.BindCall(e, rec, 1)
			arm(&tm, 3*Millisecond) // overflow tier
			arm(&tm, 5*Millisecond) // later: re-keyed
			e.AtCall(40, rec, 2)
			e.AtCall(Millisecond, rec, 3)
			e.RunFor(10)
			arm(&tm, 30) // earlier than the queued event: a fresh push
			e.Run()
		}},
		{"at-now", []fireRec{{2, 10}, {3, 10}, {1, 10}, {4, 10}}, func(e *Engine, rec *fireRecorder, arm func(*Timer, Time)) {
			var tm Timer
			tm.BindCall(e, rec, 1)
			e.AtCall(10, rec, 2)
			e.At(10, func() {
				arm(&tm, 0) // the queued event is due now: re-keyed behind rec 3
				e.AtCall(10, rec, 4)
			})
			arm(&tm, 10)
			e.AtCall(10, rec, 3)
			e.Run()
		}},
		{"rebound-while-dead", []fireRec{{2, 200}, {5, 310}}, func(e *Engine, rec *fireRecorder, arm func(*Timer, Time)) {
			type pooled struct{ rto Timer }
			p := new(pooled)
			p.rto.BindCall(e, rec, 1)
			arm(&p.rto, 200)
			e.RunFor(10)
			p.rto.Stop()
			*p = pooled{} // recycled, as ndp.StartFlow resets a sendFlow
			p.rto.BindCall(e, rec, 5)
			arm(&p.rto, 250) // later than the dead event: must not re-key it
			arm(&p.rto, 300)
			e.AtCall(200, rec, 2)
			e.Run()
		}},
	}
	for name, mk := range schedulers {
		for _, sc := range scripts {
			run := func(arm func(*Timer, Time)) outcome {
				e := NewWith(mk())
				rec := &fireRecorder{e: e}
				sc.run(e, rec, arm)
				return outcome{rec.recs, e.Steps(), e.Stats().Scheduled}
			}
			eager := run(eagerArm)
			same(t, name+" "+sc.name, outcome{sc.want, eager.steps, eager.keys}, eager)
			same(t, name+" "+sc.name, eager, run(armTimer))
		}
	}
}

// Far-future events (MaxTime parks, blackout recoveries) must take the
// overflow tier, not force the wheel cursor to crawl empty revolutions —
// and must still fire in exact order relative to wheel residents.
func TestWheelOverflowTier(t *testing.T) {
	e := New()
	w := e.sched.(*wheelSched)
	var got []int
	oh := &orderHandler{got: &got}
	e.AtCall(MaxTime, oh, 99) // parked: way beyond the horizon
	e.AtCall(500, oh, 0)
	e.AtCall(90*Millisecond, oh, 2) // beyond the ~1 ms horizon
	e.AtCall(700*Microsecond, oh, 1)
	if w.overflow.Len() != 2 {
		t.Fatalf("overflow holds %d events, want 2 (MaxTime park + 90ms)", w.overflow.Len())
	}
	e.RunUntil(Second)
	want := []int{0, 1, 2}
	if len(got) != 3 {
		t.Fatalf("fired %v, want %v (MaxTime still parked)", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fire order %v, want %v", got, want)
		}
	}
	if e.Len() != 1 {
		t.Fatalf("Len = %d, want 1 (the MaxTime park)", e.Len())
	}
}

// RunUntil's trailing peek sees a distant next event; a near-future schedule
// made from outside afterwards must still fire first.
func TestWheelRewindAfterPeek(t *testing.T) {
	e := New()
	var got []Time
	rec := func() { got = append(got, e.Now()) }
	e.At(10_000, rec)
	e.At(500_000, rec)
	e.RunUntil(10_000) // fires the first; the trailing peek sees the second
	e.At(20_000, rec)  // earlier than what the peek saw
	e.Run()
	want := []Time{10_000, 20_000, 500_000}
	if len(got) != len(want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fire times %v, want %v", got, want)
		}
	}
}

// wantPopOrder drains a raw scheduler and requires exactly these events,
// in this order.
func wantPopOrder(t *testing.T, s Scheduler, want ...*Event) {
	t.Helper()
	var got []*Event
	for ev := s.Pop(); ev != nil; ev = s.Pop() {
		got = append(got, ev)
	}
	if len(got) != len(want) {
		t.Fatalf("popped %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pop %d = {at %d seq %d}, want {at %d seq %d}", i, got[i].at, got[i].seq, want[i].at, want[i].seq)
		}
	}
}

// Windows w and w+1024 share a slot index, but a slot never holds two
// revolutions: whichever of the two is not within (cur, cur+1024) waits in
// the heap. Both ways to get there must pop in exact order.
func TestWheelMultiRevolutionBucket(t *testing.T) {
	// A raw push behind the cursor (the engine forbids it; the Scheduler
	// interface does not): its slot now means a window a revolution later.
	t.Run("behind-cursor", func(t *testing.T) {
		w := NewWheelScheduler().(*wheelSched)
		lead := &Event{at: 1800 << wheelShift, seq: 0}
		w.Push(lead)
		if w.Pop() != lead || w.cur != 1800 {
			t.Fatalf("cursor at window %d after popping window 1800", w.cur)
		}
		ahead := &Event{at: 2000<<wheelShift + 7, seq: 1}  // window slot 976
		behind := &Event{at: 976<<wheelShift + 7, seq: 2}  // same slot index, 1024 windows earlier
		leaf := &Event{at: 1800<<wheelShift + 300, seq: 3} // the cursor's own window
		justBehind := &Event{at: 1800<<wheelShift - 1, seq: 4}
		for _, ev := range []*Event{ahead, behind, leaf, justBehind} {
			w.Push(ev)
		}
		if w.count != 2 || w.overflow.Len() != 2 {
			t.Fatalf("wheel holds %d, heap %d; want 2 and 2 (both behind-cursor pushes in the heap)", w.count, w.overflow.Len())
		}
		if got := w.Peek(); got != behind {
			t.Fatalf("Peek = {at %d}, want the behind-cursor event", got.at)
		}
		wantPopOrder(t, w, behind, justBehind, leaf, ahead)
	})
	// An event exactly one horizon ahead of a near one must not join its
	// FIFO: it pops after everything the wheel holds below it, including
	// residents of the last in-horizon window, and before a tie pushed into
	// the wheel once its window is in reach.
	t.Run("one-horizon-ahead", func(t *testing.T) {
		w := NewWheelScheduler().(*wheelSched)
		near := &Event{at: 5<<wheelShift + 100, seq: 0}
		far := &Event{at: (5+wheelSlots)<<wheelShift + 100, seq: 1} // slot 5 again, one revolution on
		edge := &Event{at: wheelSlots << wheelShift, seq: 2}        // first window past the horizon
		last := &Event{at: wheelSlots<<wheelShift - 1, seq: 3}      // last ns inside it
		for _, ev := range []*Event{near, far, edge, last} {
			w.Push(ev)
		}
		if w.count != 2 || w.overflow.Len() != 2 {
			t.Fatalf("wheel holds %d, heap %d; want 2 and 2", w.count, w.overflow.Len())
		}
		for _, want := range []*Event{near, last} {
			if got := w.Pop(); got != want {
				t.Fatalf("Pop = {at %d seq %d}, want {at %d seq %d}", got.at, got.seq, want.at, want.seq)
			}
		}
		// The cursor is at window 1023 now, so far's window is in reach.
		tie := &Event{at: far.at, seq: 4}
		w.Push(tie)
		if w.overflow.Len() != 2 || w.slots[5].head != tie {
			t.Fatalf("tie did not land in slot 5 of the wheel (heap %d)", w.overflow.Len())
		}
		wantPopOrder(t, w, edge, far, tie)
	})
}

// Peek must not move anything. If peeking at a distant window cascaded it
// (or advanced the cursor), the near-future push that follows a RunUntil's
// trailing peek — a source pump, AddFlow + RunFor — would land behind the
// cursor. It must land in the wheel and pop first.
func TestWheelPeekMovesNothing(t *testing.T) {
	w := NewWheelScheduler().(*wheelSched)
	far := &Event{at: 400<<wheelShift + 9, seq: 0}
	w.Push(far)
	if w.Peek() != far || w.Peek() != far {
		t.Fatal("Peek did not return the sole resident")
	}
	if w.cur != 0 || w.leafOcc.sum != 0 || w.slots[400].min != far {
		t.Fatalf("Peek moved the wheel: cur %d, leaf summary %#x", w.cur, w.leafOcc.sum)
	}
	near := &Event{at: 20<<wheelShift + 1, seq: 1}
	sameWindow := &Event{at: 400<<wheelShift + 3, seq: 2} // earlier than far: replaces the slot's min
	w.Push(near)
	w.Push(sameWindow)
	if w.overflow.Len() != 0 {
		t.Fatalf("%d pushes after a Peek fell to the heap", w.overflow.Len())
	}
	if w.Peek() != near {
		t.Fatal("Peek after the near push is not the near event")
	}
	wantPopOrder(t, w, near, sameWindow, far)
}

// Push must never carry the cursor forward: a slice-clock tick 100 µs out
// pushed into an idle wheel would otherwise put the cursor past now and
// send the next burst of near-future events to the heap until time caught
// up.
func TestWheelPushNeverMovesCursor(t *testing.T) {
	e := New()
	w := e.sched.(*wheelSched)
	var got []int
	oh := &orderHandler{got: &got}
	e.AtCall(100*Microsecond, oh, 99)
	if w.cur != 0 {
		t.Fatalf("a push moved the cursor to window %d", w.cur)
	}
	for i := 0; i < 50; i++ {
		e.AtCall(Time(i*120), oh, i)
	}
	if w.overflow.Len() != 0 || w.count != 51 {
		t.Fatalf("burst after a far push: wheel %d, heap %d; want 51 and 0", w.count, w.overflow.Len())
	}
	e.Run()
	if len(got) != 51 || got[50] != 99 {
		t.Fatalf("fired %v", got)
	}
	for i := 0; i < 50; i++ {
		if got[i] != i {
			t.Fatalf("burst order %v", got)
		}
	}
}

// chainHop hops via ContinueCall, recording the firing event's identity at
// each hop (white-box) and the event returned by ContinueCall.
type chainHop struct {
	e        *Engine
	hopsLeft int
	entered  []*Event // e.firing observed at each hop entry
	armed    []*Event // what ContinueCall returned at each hop
	times    []Time
}

func (c *chainHop) OnEvent(any) {
	c.entered = append(c.entered, c.e.firing)
	c.times = append(c.times, c.e.Now())
	if c.hopsLeft > 0 {
		c.hopsLeft--
		c.armed = append(c.armed, c.e.ContinueCall(7, c, nil))
	}
}

// ContinueCall must re-arm the very event object that is firing — the whole
// chain rides one Event — while firing at exactly the AfterCall times.
func TestContinueCallReusesFiringEvent(t *testing.T) {
	e := New()
	c := &chainHop{e: e, hopsLeft: 5}
	e.AfterCall(3, c, nil)
	e.Run()
	if len(c.entered) != 6 {
		t.Fatalf("chain ran %d hops, want 6", len(c.entered))
	}
	for i, at := range c.times {
		if want := Time(3 + 7*i); at != want {
			t.Fatalf("hop %d fired at %v, want %v", i, at, want)
		}
	}
	for i, armed := range c.armed {
		if armed != c.entered[i] {
			t.Fatalf("hop %d: ContinueCall returned a different object than the firing event", i)
		}
		if armed != c.entered[i+1] {
			t.Fatalf("hop %d: next hop fired on a different object", i)
		}
	}
}

// ContinueCall's tie-order must be exactly AfterCall's at the same program
// point: competitors scheduled at the same instant fire in call order, no
// matter which form each call used.
func TestContinueCallTieOrderMatchesAfterCall(t *testing.T) {
	e := New()
	var got []int
	oh := &orderHandler{got: &got}
	e.At(0, func() {
		e.AfterCall(10, oh, 0)
		e.ContinueCall(10, oh, 1) // claims the firing event; seq follows the AfterCall
		e.AfterCall(10, oh, 2)
		e.ContinueCall(10, oh, 3) // firing already claimed: falls back to pooled path
	})
	e.Run()
	want := []int{0, 1, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("tie order %v, want %v", got, want)
		}
	}
}

// rearmOnce re-arms itself through ContinueCall the first time it fires.
type rearmOnce struct {
	e     *Engine
	d     Time
	fired []Time
}

func (r *rearmOnce) OnEvent(any) {
	r.fired = append(r.fired, r.e.Now())
	if len(r.fired) == 1 {
		r.e.ContinueCall(r.d, r, nil)
	}
}

// ContinueCall re-arms the popped object without zeroing it, so Pop must
// have cleared its bucket link: a stale one would drag the old bucket's
// next event (by then fired and recycled) into the new bucket.
func TestContinueCallDropsBucketLink(t *testing.T) {
	for _, d := range []Time{40, 5 * Microsecond} { // re-arm into a leaf bucket, into a window slot
		e := New()
		r := &rearmOnce{e: e, d: d}
		h := &countHandler{}
		e.AtCall(100, r, nil)
		e.AtCall(100, h, nil) // queued behind r in the same bucket
		e.Run()
		if len(r.fired) != 2 || r.fired[1] != 100+d || h.n != 1 {
			t.Fatalf("d=%v: chain fired at %v, neighbour fired %d times; want [100 %v] and 1", d, r.fired, h.n, 100+d)
		}
		if st := e.Stats(); st.Fired != 3 || st.Pending != 0 {
			t.Fatalf("d=%v: fired %d, pending %d; want 3 and 0", d, st.Fired, st.Pending)
		}
	}
}

// Outside any callback there is no firing event; ContinueCall must degrade
// to a plain scheduled call.
func TestContinueCallOutsideCallback(t *testing.T) {
	e := New()
	var got []int
	oh := &orderHandler{got: &got}
	e.ContinueCall(5, oh, 7)
	e.Run()
	if len(got) != 1 || got[0] != 7 || e.Now() != 5 {
		t.Fatalf("got %v at %v, want [7] at 5", got, e.Now())
	}
}

// Timer bound via BindCall (the form pooled structs embed) must dispatch to
// the handler and re-arm without allocating.
func TestTimerBindCall(t *testing.T) {
	e := New()
	h := &countHandler{}
	arg := new(int)
	var tm Timer
	tm.BindCall(e, h, arg)
	tm.Arm(10)
	tm.Arm(20)
	e.Run()
	if h.n != 1 {
		t.Fatalf("bound timer fired %d times, want 1", h.n)
	}
	if h.args[0] != any(arg) {
		t.Fatalf("bound timer arg = %v, want %p", h.args[0], arg)
	}
	if tm.ev != nil {
		t.Fatal("timer still armed after firing")
	}
}

type nopHandler struct{}

func (*nopHandler) OnEvent(any) {}

// denseDeltas draws every schedule as now+d for a d from the scales the
// simulator emits — serialization times, propagation delays, pacing gaps,
// slice ticks. Because they reach to just under the wheel horizon, a
// 4096-event backlog spreads over ~950 µs: about four events per 1 µs
// window. It measures the wheel's constant factor, not a crowded window.
var denseDeltas = []Time{
	720, 500, 1500, 5 * Microsecond, 720, 40 * Microsecond, 1200,
	180 * Microsecond, 500, 950 * Microsecond, 9 * Microsecond, 720,
}

// benchSchedule measures one push+pop round trip at a steady backlog, with
// per-op deltas drawn from next.
func benchSchedule(b *testing.B, mk func() Scheduler, next func(i int) Time, backlog int) {
	e := NewWith(mk())
	h := &nopHandler{}
	for i := 0; i < backlog; i++ {
		e.AfterCall(next(i), h, nil)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.AfterCall(next(i), h, nil)
		e.Step()
	}
}

// fabricChain is one port-like chain: every firing re-arms it through
// ContinueCall a serialization-or-propagation-sized step ahead.
type fabricChain struct {
	e *Engine
	i int
}

var fabricDeltas = [4]Time{51, 51, 500, 1200}

func (c *fabricChain) OnEvent(any) {
	c.e.ContinueCall(fabricDeltas[c.i&3], c, nil)
	c.i++
}

// benchFabric times Step with 512 such chains live, which puts on the
// order of a thousand events in each 1 µs window — the regime a fabric run
// is in (shuffle_clos averages 465 per window at push time).
func benchFabric(b *testing.B, mk func() Scheduler) {
	e := NewWith(mk())
	for i := 0; i < 512; i++ {
		e.AfterCall(Time(2*i), &fabricChain{e: e, i: i}, nil)
	}
	for i := 0; i < 8192; i++ {
		e.Step() // let the chains' phases spread
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

// BenchmarkEngineSchedule is the scheduler acceptance benchmark, three
// regimes. dense: a few events per window; the wheel must beat the heap by
// ≥25% ns/op (bench/'s eventsim.schedule_fire_ns cell tracks the wheel).
// fabric: hundreds of events per window — the case dense cannot see, and
// the one that decides a fabric run's wall time. A wheel that orders
// events inside a bucket loses to the heap at this occupancy (sorted 1 µs
// buckets read 109 ns/op against the heap's 93), so the wheel must cost at
// most half the heap's ns/op here. sparse: events scattered uniformly over
// 50 ms, mostly beyond the horizon, exercising the overflow tier, where
// the wheel is expected to roughly match the heap, not beat it.
func BenchmarkEngineSchedule(b *testing.B) {
	dense := func(i int) Time { return denseDeltas[i%len(denseDeltas)] }
	sparseRng := rand.New(rand.NewSource(1))
	sparse := func(int) Time { return Time(sparseRng.Int63n(int64(50*Millisecond))) + 1 }
	cases := []struct {
		name    string
		mk      func() Scheduler
		next    func(i int) Time
		backlog int
	}{
		{"dense/wheel", NewWheelScheduler, dense, 4096},
		{"dense/heap", NewHeapScheduler, dense, 4096},
		{"sparse/wheel", NewWheelScheduler, sparse, 4096},
		{"sparse/heap", NewHeapScheduler, sparse, 4096},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) { benchSchedule(b, c.mk, c.next, c.backlog) })
	}
	b.Run("fabric/wheel", func(b *testing.B) { benchFabric(b, NewWheelScheduler) })
	b.Run("fabric/heap", func(b *testing.B) { benchFabric(b, NewHeapScheduler) })
}
