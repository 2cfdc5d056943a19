package eventsim

// Timer is a restartable one-shot timer bound to an engine, for
// retransmission timeouts that are re-armed on every acknowledgement and
// usually stopped before they fire. It is embedded by value in pooled
// structs — an NDP flow's RTO, for example — and dispatches to a pre-bound
// Handler + arg (BindCall), so a recycled owner needs no per-flow closure
// or Timer allocation.
//
// A timer keeps at most one event in the scheduler. Arm takes the next seq
// exactly as a fresh schedule would and records the resulting (time, seq)
// key on the timer; when the queued event is due no later than that key,
// nothing is pushed, and the event is moved to the key once it reaches the
// front (Engine.requeue). A re-arm therefore costs no scheduler work until
// the old deadline passes, and the timer fires at exactly the (time, seq)
// a cancel-and-reschedule would have given it.
type Timer struct {
	eng *Engine
	h   Handler
	arg any

	// ev is the timer's live event, nil while the timer is stopped. at and
	// seq are the key it fires at; ev may still sit at an earlier one.
	ev  *Event
	at  Time
	seq uint64
}

// BindCall initializes (or rebinds) the timer in place, stopped, to invoke
// h.OnEvent(arg) when it fires.
func (t *Timer) BindCall(eng *Engine, h Handler, arg any) {
	*t = Timer{eng: eng, h: h, arg: arg}
}

// Arm (re)schedules the timer to fire d after now, replacing any pending
// schedule. Re-arming to a time no earlier than the queued event's pushes
// nothing and does not allocate.
func (t *Timer) Arm(d Time) {
	e := t.eng
	if ev := t.ev; ev != nil && ev.at <= e.now+d {
		t.at, t.seq = e.now+d, e.seq
		e.seq++
		return
	}
	t.ev = e.AfterCall(d, (*timerEvent)(t), nil)
	t.at, t.seq = t.ev.at, t.ev.seq
}

// Stop disarms the timer. Its queued event, if any, is dead: it stays in
// the scheduler until its time and is then dropped without firing.
func (t *Timer) Stop() { t.ev = nil }

// timerEvent is the handler of a timer's event: the Timer itself under a
// type only this package can name. A Timer is no Handler, so nothing but
// Arm can schedule one, and an event is a timer's exactly when its handler
// is a *timerEvent, which is how stale tells.
type timerEvent Timer

func (te *timerEvent) OnEvent(any) {
	t := (*Timer)(te)
	t.ev = nil
	t.h.OnEvent(t.arg)
}

// stale returns the timer of a popped event that is not to fire as it
// stands — its timer has since been stopped, rebound or re-armed to a new
// key — and nil for every other event.
func stale(ev *Event) *Timer {
	if te, ok := ev.h.(*timerEvent); ok && (te.ev != ev || te.seq != ev.seq) {
		return (*Timer)(te)
	}
	return nil
}
