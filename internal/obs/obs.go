// Package obs is the live observability plane: it turns a running
// simulation (or sweep coordinator) from a black box into something
// operated like the production fabrics it models.
//
// The design splits cleanly along the single-goroutine boundary of the
// engine. Inside the simulation, a Publisher rides one pooled meta event
// (eventsim.AtMetaCall / ContinueMetaCall) and, each sampling period,
// captures an immutable Snapshot — flow counts, trailing window rates,
// sketch quantiles, engine counters, pool gauges, live fault state — and
// hands it to a Mailbox: a lock-free latest-wins pointer swap, so the sim
// goroutine never blocks on a slow or absent reader. Outside, NewMux
// serves whatever the Mailbox holds over HTTP: /status (JSON),
// /status/stream (SSE), expvar and net/http/pprof. Sweep coordinators
// publish a SweepStatus through the same Source/serving layer.
//
// Observation must not perturb: meta events are excluded from
// Engine.Len/Steps, snapshot capture is read-only, and
// TestObserverDeterminism asserts an observed run's Result is
// byte-identical to the unobserved run. With no observer attached the hot
// path stays allocation-free and branch-free.
//
// Lint note (the PR 8 landmine): opera-lint analyzers match packages by
// import-path BASE, not full path. This package registers the base "obs"
// in the maporder scope, so any other package whose import path ends in
// /obs inherits that check too — snapshot code must sort map iterations
// (tags).
package obs

import "sync/atomic"

// Source is what the HTTP layer serves: the latest status value plus a
// sequence number that changes when the value does (the SSE stream polls
// the seq to decide when to emit). Implementations must be safe for
// concurrent use; both Mailbox and SweepTracker qualify.
type Source interface {
	StatusSnapshot() (data any, seq uint64)
}

// Mailbox hands snapshots from the simulation goroutine to any number of
// HTTP readers without blocking either side: Publish is one atomic pointer
// swap (latest wins, intermediate snapshots are simply dropped), and
// readers always see a complete, immutable Snapshot. The zero value is
// ready to use.
type Mailbox struct {
	cur atomic.Pointer[Snapshot]
}

// Publish installs s as the current snapshot. The caller must not mutate
// s afterwards — readers hold it without synchronization.
func (m *Mailbox) Publish(s *Snapshot) { m.cur.Store(s) }

// Snapshot returns the current snapshot, nil before the first Publish.
func (m *Mailbox) Snapshot() *Snapshot { return m.cur.Load() }

// StatusSnapshot implements Source.
func (m *Mailbox) StatusSnapshot() (any, uint64) {
	s := m.cur.Load()
	if s == nil {
		return nil, 0
	}
	return s, s.Seq
}
