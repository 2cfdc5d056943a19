package eventsim

// This file is the engine's observability surface: cheap point-in-time
// counter reads (Stats) and the meta-event scheduling entry points an
// observer uses to sample a running simulation without perturbing it.
//
// The accounting deliberately lives off the hot path. Step gains no
// observer branch: nSteps counts every fired event (meta included) exactly
// as before, and the meta split is maintained by the meta entry points at
// schedule time plus MetaStep at fire time — both called only by observer
// code. When no observer is attached, metaPending and nMetaSteps stay
// zero and every method below degenerates to the pre-observability
// counters.

// EngineStats is a point-in-time view of the engine's internal counters,
// tagged with the names /status reports them under. All fields are plain
// reads — capturing one is allocation-free and O(wheel words), safe to do
// from inside an engine callback.
type EngineStats struct {
	// Scheduled counts keys ever taken (the seq high-water mark): every
	// push, including meta events and ContinueCall re-arms, plus every key
	// a Timer.Arm reserved without pushing. A re-keyed timer event goes
	// back in under its reserved key and is not counted again.
	Scheduled uint64 `json:"scheduled"`
	// Fired counts simulation (non-meta) events executed — Engine.Steps.
	Fired uint64 `json:"fired"`
	// MetaFired counts meta (observer) events executed.
	MetaFired uint64 `json:"meta_fired"`
	// Cancelled counts dead timer events dropped from the scheduler: an
	// event whose timer was stopped, rebound or re-armed to an earlier
	// time after it was pushed. One not yet due is still Pending. Re-keys
	// are not counted.
	Cancelled uint64 `json:"cancelled"`
	// Pending counts simulation events currently scheduled — Engine.Len.
	Pending int `json:"pending"`
	// FreePool is the engine's event free-list size: pooled Event objects
	// parked between firings.
	FreePool int `json:"free_pool"`
	// SchedStats reports pending-event-store occupancy.
	SchedStats
}

// SchedStats describes pending-event-store occupancy. For the default
// timing wheel, Resident counts wheel-held events, Buckets the occupied
// leaf buckets plus occupied window slots, and Overflow the events parked
// in the heap tier. The plain heap scheduler reports everything under
// Overflow.
type SchedStats struct {
	Resident int `json:"wheel_resident"`
	Buckets  int `json:"wheel_buckets"`
	Overflow int `json:"overflow_heap"`
}

// Stats captures the engine's counters. The caller owns the returned value;
// it is a copy, never a live view.
func (e *Engine) Stats() EngineStats {
	return EngineStats{
		Scheduled:  e.seq,
		Fired:      e.nSteps - e.nMetaSteps,
		MetaFired:  e.nMetaSteps,
		Cancelled:  e.nCancelled,
		Pending:    e.sched.Len() - e.metaPending,
		FreePool:   e.free.Len(),
		SchedStats: e.sched.SchedStats(),
	}
}

// AtMetaCall schedules h.OnEvent(arg) at absolute virtual time t as a meta
// event: bookkeeping that observes the simulation without being part of
// it. Meta events are excluded from Len and Steps, so a periodic sampler
// cannot change done-detection ("queue drained") or reported effort — the
// invariant behind byte-identical results with and without an observer.
//
// The contract: the handler MUST call MetaStep before anything else in
// OnEvent and must reschedule itself only via AtMetaCall/ContinueMetaCall.
// Meta handlers must be read-only with respect to simulation state; they
// consume seq numbers, which preserves the relative order of all
// simulation events.
func (e *Engine) AtMetaCall(t Time, h Handler, arg any) *Event {
	e.metaPending++
	return e.AtCall(t, h, arg)
}

// ContinueMetaCall is the meta counterpart of ContinueCall: it re-arms the
// currently firing event object as the next meta sample, so a periodic
// observer rides one pooled Event for the whole run. The AtMetaCall
// contract applies.
func (e *Engine) ContinueMetaCall(d Time, h Handler, arg any) *Event {
	e.metaPending++
	return e.ContinueCall(d, h, arg)
}

// MetaStep records that the currently firing event is a meta event,
// rebalancing the pending and fired counts Len and Steps exclude. It must
// be the first call in a meta handler's OnEvent, exactly once per firing.
func (e *Engine) MetaStep() {
	e.metaPending--
	e.nMetaSteps++
}
