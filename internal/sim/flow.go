package sim

import (
	"github.com/opera-net/opera/internal/eventsim"
	"github.com/opera-net/opera/internal/stats"
	"github.com/opera-net/opera/internal/telemetry"
)

// Flow is one transfer between two hosts. Transports update its progress;
// Metrics aggregates completion times.
type Flow struct {
	ID      int64
	SrcHost int32
	DstHost int32
	SrcRack int32
	DstRack int32
	Size    int64 // application bytes
	Class   Class // LowLatency (NDP) or Bulk (RotorLB / bulk-class NDP)
	Done    bool

	// Tag is an application-assigned label ("" = untagged) carried
	// end-to-end so results can be broken down per workload component
	// (§5.2's app-tagged shuffle vs its competing traffic).
	Tag string

	Start     eventsim.Time
	End       eventsim.Time
	BytesRcvd int64

	// SendSlot and RecvSlot belong to the flow's transport: where it keeps
	// the flow's sender and receiver state while it holds any, 0 otherwise
	// (NDP indexes its fabric-wide state tables with them, so a packet —
	// which points at its flow — reaches that state without a lookup).
	SendSlot, RecvSlot int32

	// Retransmits counts NDP NACK-triggered resends and RotorLB NACK
	// requeues.
	Retransmits int
}

// FCT returns the flow completion time, valid once Done.
func (f *Flow) FCT() eventsim.Time { return f.End - f.Start }

// Metrics aggregates simulation-wide observations. The simulator is
// single-threaded, so no locking is needed.
//
// Completed flows are retained according to the RetentionPolicy (see
// SetRetention): RetainAll (the default) keeps every *Flow for exact
// statistics; RetainSketch absorbs each completion into streaming
// sketches and releases the flow, keeping memory flat on unbounded runs.
type Metrics struct {
	flows []*Flow // retained completions (RetainAll only)
	total int     // flows registered, maintained incrementally by AddFlow
	done  int     // flows completed, maintained incrementally by FlowDone

	// DeliveredBytes tracks application bytes arriving at receivers over
	// time (Figure 8's throughput series), binned at 1 ms. It is nil under
	// RetainSketch — the unbounded per-bin series is what streaming
	// retention avoids; use DeliveredTotal or Telemetry().Delivered().
	DeliveredBytes *stats.TimeSeries

	// UplinkBytes counts ToR-to-ToR traversals per class — the denominator
	// of the bandwidth-tax accounting: a byte delivered over h ToR hops
	// contributes h times here and once to goodput.
	UplinkBytes [numClasses]uint64
	// GoodputBytes counts inter-rack application bytes delivered, per class.
	GoodputBytes [numClasses]uint64

	// OnFlowDone, when set, is invoked as flows complete.
	OnFlowDone func(*Flow)

	// tel absorbs completions under RetainSketch.
	tel *telemetry.Collector
}

// NewMetrics returns an empty metrics collector.
func NewMetrics() *Metrics {
	return &Metrics{DeliveredBytes: stats.NewTimeSeries(0.001)}
}

// AddFlow registers a flow. Under RetainSketch only counters (and the
// flow's tag tally) are updated — the *Flow is never retained here.
func (m *Metrics) AddFlow(f *Flow) {
	m.total++
	if m.tel != nil {
		m.tel.FlowAdded(f.Tag)
		return
	}
	m.flows = append(m.flows, f)
}

// Flows returns all retained flows. Under RetainSketch nothing is
// retained and the slice is empty; consume Telemetry() instead.
func (m *Metrics) Flows() []*Flow { return m.flows }

// FlowDone marks f complete at time now. Under RetainSketch the flow's
// statistics are absorbed into the collector; Metrics never held f, so
// the flow is garbage once its transport lets go of it.
func (m *Metrics) FlowDone(f *Flow, now eventsim.Time) {
	if f.Done {
		return
	}
	f.Done = true
	f.End = now
	m.done++
	if m.OnFlowDone != nil {
		m.OnFlowDone(f)
	}
	if m.tel != nil {
		m.tel.FlowDone(int(f.Class), f.Tag, f.FCT().Micros(), f.BytesRcvd)
	}
}

// RecordDelivery accounts app bytes arriving at a receiver: hops is the
// number of ToR-to-ToR traversals the bytes took (0 for rack-local).
func (m *Metrics) RecordDelivery(f *Flow, bytes int, hops int, now eventsim.Time) {
	f.BytesRcvd += int64(bytes)
	if m.tel != nil {
		m.tel.RecordDelivered(now.Seconds(), float64(bytes))
	} else {
		m.DeliveredBytes.Record(now.Seconds(), float64(bytes))
	}
	if hops > 0 {
		m.GoodputBytes[f.Class] += uint64(bytes)
		m.UplinkBytes[f.Class] += uint64(bytes * hops)
		if m.tel != nil {
			m.tel.RecordTax(now.Seconds(), float64(bytes), float64(bytes*hops))
		}
	}
}

// DeliveredTotal returns the total application bytes delivered, exact
// under both retention policies.
func (m *Metrics) DeliveredTotal() float64 {
	if m.tel != nil {
		return m.tel.Delivered().Total()
	}
	return m.DeliveredBytes.Total()
}

// BandwidthTax returns the effective bandwidth-tax rate for a class: extra
// in-network bytes divided by goodput ((k−1)·x per §1). Zero if no traffic.
func (m *Metrics) BandwidthTax(c Class) float64 {
	if m.GoodputBytes[c] == 0 {
		return 0
	}
	return float64(m.UplinkBytes[c])/float64(m.GoodputBytes[c]) - 1
}

// AggregateTax returns the tax rate across low-latency and bulk classes.
func (m *Metrics) AggregateTax() float64 {
	good := m.GoodputBytes[ClassLowLatency] + m.GoodputBytes[ClassBulk]
	up := m.UplinkBytes[ClassLowLatency] + m.UplinkBytes[ClassBulk]
	if good == 0 {
		return 0
	}
	return float64(up)/float64(good) - 1
}

// FCTSample collects completion times (in µs) of done flows matching the
// filter (nil = all). Exact samples exist only under RetainAll; under
// RetainSketch the sample is empty — query Telemetry() sketches instead.
func (m *Metrics) FCTSample(filter func(*Flow) bool) *stats.Sample {
	var s stats.Sample
	for _, f := range m.flows {
		if !f.Done {
			continue
		}
		if filter == nil || filter(f) {
			s.Add(f.FCT().Micros())
		}
	}
	return &s
}

// DoneCount returns completed and total flow counts. It is O(1): the done
// counter is maintained incrementally by FlowDone, so completion polling
// (Cluster.RunUntilDone checks every 100 µs) costs nothing per registered
// flow — the old per-call rescan made long soaks quadratic in flow count.
func (m *Metrics) DoneCount() (done, total int) {
	return m.done, m.total
}
