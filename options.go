package opera

import (
	"github.com/opera-net/opera/internal/eventsim"
	"github.com/opera-net/opera/internal/sim"
	"github.com/opera-net/opera/internal/telemetry"
)

// RetentionPolicy selects how cluster metrics treat completed flows; see
// RetainAll and RetainSketch.
type RetentionPolicy = sim.RetentionPolicy

// SketchOptions tunes RetainSketch: the quantile sketches' relative-error
// bound (Alpha, default 1%). The trailing throughput/tax window is fixed at
// 128 bins of 1 ms.
type SketchOptions = telemetry.Opts

// RetainAll is the default retention policy: every completed flow is kept,
// so statistics are exact and figure CSVs byte-reproducible — at the cost
// of memory that grows with total flow count.
func RetainAll() RetentionPolicy { return sim.RetainAll() }

// RetainSketch is the streaming retention policy: completed flows feed
// per-class and per-tag quantile sketches (pinned relative error
// SketchOptions.Alpha) plus trailing windowed counters, and every per-flow
// record — metrics and transport state — is released.
// Steady-state memory becomes O(active flows + sketch), which is what
// lets month-long soaks run flat; counts, means, min/max, throughput and
// bandwidth tax remain exact, and the sketches merge across process
// shards.
func RetainSketch(opts SketchOptions) RetentionPolicy { return sim.RetainSketch(opts) }

// Option adjusts one knob of a cluster under construction; pass Options to
// New. Options are applied in order over the defaults, so later options
// win.
type Option func(*config)

// WithRacks sets the rack count (Opera/RotorNet/expander fabrics).
func WithRacks(n int) Option {
	return func(cfg *config) { cfg.fabric.Racks = n }
}

// WithHostsPerRack sets hosts per rack d.
func WithHostsPerRack(n int) Option {
	return func(cfg *config) { cfg.fabric.HostsPerRack = n }
}

// WithUplinks sets uplinks per ToR (the expander's fabric degree u).
func WithUplinks(n int) Option {
	return func(cfg *config) { cfg.fabric.Uplinks = n }
}

// WithClos sizes the folded Clos: radix k and oversubscription F. A zero
// argument keeps the current value, so either can be set alone.
func WithClos(k, f int) Option {
	return func(cfg *config) {
		if k != 0 {
			cfg.fabric.ClosK = k
		}
		if f != 0 {
			cfg.fabric.ClosF = f
		}
	}
}

// WithAppTaggedBulk forces every flow to bulk service regardless of size
// (§5.2's application-tagged shuffle).
func WithAppTaggedBulk(tagged bool) Option {
	return func(cfg *config) { cfg.appTaggedBulk = tagged }
}

// WithSeed seeds topology generation and per-ToR packet spraying.
func WithSeed(seed int64) Option {
	return func(cfg *config) { cfg.fabric.Seed = seed }
}

// WithMaxSliceDiameter bounds Opera slice diameters at build time (5
// reproduces the paper's ε sizing; 0 means no bound).
func WithMaxSliceDiameter(d int) Option {
	return func(cfg *config) { cfg.fabric.MaxSliceDiameter = d }
}

// WithRetention selects the metrics retention policy: RetainAll (default,
// exact) or RetainSketch (streaming, flat-memory). A scenario.Spec selects
// it through its Retention field; the scenario Result keeps its shape,
// with sketch-fed FCT summaries, ErrorBound set to the sketches' α, and
// the trailing window as its delivered series.
func WithRetention(r RetentionPolicy) Option {
	return func(cfg *config) { cfg.retention = r }
}

// WithScheduler runs the cluster's engine on the given pending-event store
// instead of the default timing wheel. Results are scheduler-independent
// by contract, so this selects nothing about the simulation: it is how the
// heap oracle (eventsim.NewHeapScheduler) runs a whole cluster as a
// differential, and how a counting wrapper (eventsim.CountKinds) sees a
// run's events. A Scheduler holds one run's events, so it can serve one
// cluster; scenario.Scenario carries it as a process-local hook.
func WithScheduler(s eventsim.Scheduler) Option {
	return func(cfg *config) { cfg.sched = s }
}
