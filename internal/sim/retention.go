package sim

import "github.com/opera-net/opera/internal/telemetry"

// RetentionPolicy selects how Metrics treats completed flows.
//
// RetainAll (the zero value, and the default) keeps every *Flow so exact
// percentiles, CDFs and raw-flow scans work — the right trade for figure
// reproduction, where results must be byte-exact, but memory then grows
// with total flow count.
//
// RetainSketch streams instead of retaining: each completed flow's
// statistics are absorbed into mergeable quantile sketches (per service
// class and per workload tag) and trailing-window counters, and the flow
// is then released — Metrics keeps no record of it beyond recycling a
// PooledFlow record. Retention is observation only: transports behave the
// same under both policies (NDP, for one, frees a flow's sender and
// receiver state at completion under either).
// Steady-state memory becomes O(active flows + sketch) no matter how long
// the run, which is what makes month-long soaks flat-memory. Quantiles
// carry the sketch's pinned relative-error bound (Opts.Alpha, default 1%);
// counts, means, min/max, throughput and bandwidth tax stay exact.
type RetentionPolicy struct {
	streaming bool
	opts      telemetry.Opts
}

// RetainAll returns the default exact retention policy.
func RetainAll() RetentionPolicy { return RetentionPolicy{} }

// RetainSketch returns the streaming retention policy with the given
// sketch options (zero-valued fields take defaults).
func RetainSketch(opts telemetry.Opts) RetentionPolicy {
	return RetentionPolicy{streaming: true, opts: opts}
}

// Validate reports whether the policy is usable: RetainAll always is;
// RetainSketch requires sketch options that pass telemetry validation
// (alpha bounds). Cluster construction calls this so a bad bound is a
// clear error at opera.New rather than NaN quantiles downstream.
func (r RetentionPolicy) Validate() error {
	if !r.streaming {
		return nil
	}
	return r.opts.Validate()
}

// SetRetention installs the retention policy. It must be called before the
// first flow is registered — switching policies mid-run would split the
// statistics — and panics otherwise. Under RetainSketch the exact
// DeliveredBytes series is replaced by the collector's trailing window
// (the unbounded per-bin series is exactly what streaming retention
// exists to avoid); use DeliveredTotal, which works under both policies.
func (m *Metrics) SetRetention(r RetentionPolicy) {
	if m.total != 0 {
		panic("sim: SetRetention after flows were registered")
	}
	if !r.streaming {
		m.tel = nil
		return
	}
	m.tel = telemetry.NewCollector(r.opts, int(numClasses))
	m.DeliveredBytes = nil
}

// Telemetry returns the streaming collector, or nil under RetainAll.
// Consumers (the scenario runner's Result assembly) read quantile
// summaries and trailing windows from it when no raw flows are retained.
func (m *Metrics) Telemetry() *telemetry.Collector { return m.tel }
