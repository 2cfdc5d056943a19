package obs

import (
	"sort"
	"time"

	opera "github.com/opera-net/opera"
	"github.com/opera-net/opera/internal/eventsim"
	"github.com/opera-net/opera/internal/sim"
	"github.com/opera-net/opera/internal/telemetry"
)

// Snapshot is one immutable point-in-time view of a running simulation.
// Everything is plain data with JSON tags — a Snapshot crosses the
// goroutine boundary by pointer and is never mutated after Capture.
type Snapshot struct {
	// Seq increments with every published snapshot; /status/stream emits
	// on change.
	Seq uint64 `json:"seq"`
	// WallTime is when the snapshot was captured (observability metadata
	// only — nothing in the simulation reads it).
	WallTime time.Time `json:"wall_time"`
	// SimNanos is the virtual clock in nanoseconds; SimTime renders it.
	SimNanos int64  `json:"sim_nanos"`
	SimTime  string `json:"sim_time"`

	FlowsTotal  int `json:"flows_total"`
	FlowsDone   int `json:"flows_done"`
	FlowsActive int `json:"flows_active"`

	// DeliveredBytes and ThroughputGbps are exact over the whole run.
	DeliveredBytes int64   `json:"delivered_bytes"`
	ThroughputGbps float64 `json:"throughput_gbps"`

	// BulkQueuedBytes is RotorLB's bulk backlog (own + relayed) across all
	// racks; BulkNACKs counts circuit NACK requeues. Zero on fabrics
	// without circuits.
	BulkQueuedBytes int64  `json:"bulk_queued_bytes"`
	BulkNACKs       uint64 `json:"bulk_nacks"`

	// Window, Classes and Tags carry the streaming-telemetry views; nil
	// under RetainAll (no collector to read).
	Window  *WindowRates     `json:"window,omitempty"`
	Classes []ClassQuantiles `json:"classes,omitempty"`
	Tags    []TagCounts      `json:"tags,omitempty"`

	Engine EngineCounters `json:"engine"`
	Pools  PoolGauges     `json:"pools"`
	// Faults is nil while no fault is applied.
	Faults *FaultState `json:"faults,omitempty"`
}

// WindowRates summarizes the trailing telemetry windows as rates.
// DeliveredGbps/GoodputGbps/UplinkGbps average over the live window;
// LastBinGbps is the newest bin's instantaneous delivered rate; WindowTax
// is the bandwidth tax over the window (uplink/goodput − 1).
type WindowRates struct {
	BinMs         float64 `json:"bin_ms"`
	Bins          int     `json:"bins"`
	StartMs       float64 `json:"start_ms"`
	DeliveredGbps float64 `json:"delivered_gbps"`
	GoodputGbps   float64 `json:"goodput_gbps"`
	UplinkGbps    float64 `json:"uplink_gbps"`
	LastBinGbps   float64 `json:"last_bin_gbps"`
	WindowTax     float64 `json:"window_tax"`
}

// ClassQuantiles is one FCT sketch's live readout, labelled by class.
type ClassQuantiles struct {
	Class string `json:"class"`
	telemetry.Summary
}

// TagCounts is one workload tag's live tally.
type TagCounts struct {
	Tag   string  `json:"tag"`
	Done  int     `json:"done"`
	Total int     `json:"total"`
	Bytes int64   `json:"bytes"`
	P99Us float64 `json:"p99_us"`
}

// EngineCounters mirrors eventsim.EngineStats with JSON tags.
type EngineCounters struct {
	Scheduled     uint64 `json:"scheduled"`
	Fired         uint64 `json:"fired"`
	MetaFired     uint64 `json:"meta_fired"`
	Cancelled     uint64 `json:"cancelled"`
	Pending       int    `json:"pending"`
	FreePool      int    `json:"free_pool"`
	WheelResident int    `json:"wheel_resident"`
	WheelBuckets  int    `json:"wheel_buckets"`
	OverflowHeap  int    `json:"overflow_heap"`
}

// PoolGauges reports the flow-state free lists outside the engine — the
// NDP fabric's pooled sendFlow/recvFlow objects (internal/freelist). The
// engine's own event pool is Engine.FreePool.
type PoolGauges struct {
	NDPSendFree int `json:"ndp_send_free"`
	NDPRecvFree int `json:"ndp_recv_free"`
}

// FaultState is the live fault view: what is applied right now, plus the
// stranded-VLB gauge (the known RotorLB model gap made visible).
type FaultState struct {
	Active        []ActiveFault `json:"active,omitempty"`
	StrandedBytes int64         `json:"stranded_bytes"`
}

// ActiveFault is one applied fault, rendered in the coordinate grammar of
// sim.Target/sim.Fault.
type ActiveFault struct {
	Target string `json:"target"`
	Fault  string `json:"fault"`
}

// Capture builds a Snapshot of the cluster's current state. It is
// read-only and must run on the engine goroutine (a meta event, or after
// the run has returned); Seq is left for the publisher to stamp.
func Capture(cl *opera.Cluster) *Snapshot {
	eng := cl.Engine()
	m := cl.Metrics()
	done, total := m.DoneCount()

	s := &Snapshot{
		//operalint:allow determrand -- wall clock is display-only snapshot metadata
		WallTime:       time.Now(),
		SimNanos:       int64(eng.Now()),
		SimTime:        eng.Now().String(),
		FlowsTotal:     total,
		FlowsDone:      done,
		FlowsActive:    total - done,
		DeliveredBytes: int64(m.DeliveredTotal()),
	}
	if elapsed := eng.Now().Seconds(); elapsed > 0 {
		s.ThroughputGbps = m.DeliveredTotal() * 8 / elapsed / 1e9
	}
	s.Engine = engineCounters(eng.Stats())
	if fab := cl.NDPFabric(); fab != nil {
		pg := fab.PoolStats()
		s.Pools = PoolGauges{NDPSendFree: pg.SendFree, NDPRecvFree: pg.RecvFree}
	}
	if lb := cl.RotorLB(); lb != nil {
		s.BulkQueuedBytes = lb.QueuedBytes()
		s.BulkNACKs = lb.NACKs
	}
	if tel := m.Telemetry(); tel != nil {
		fillTelemetry(s, tel)
	}
	s.Faults = faultState(cl)
	return s
}

func engineCounters(st eventsim.EngineStats) EngineCounters {
	return EngineCounters{
		Scheduled:     st.Scheduled,
		Fired:         st.Fired,
		MetaFired:     st.MetaFired,
		Cancelled:     st.Cancelled,
		Pending:       st.Pending,
		FreePool:      st.FreePool,
		WheelResident: st.Sched.Resident,
		WheelBuckets:  st.Sched.Buckets,
		OverflowHeap:  st.Sched.Overflow,
	}
}

// fillTelemetry reads the streaming collector: window rates, per-class
// quantiles, and per-tag tallies in sorted tag order.
func fillTelemetry(s *Snapshot, tel *telemetry.Collector) {
	w := tel.Delivered()
	wr := &WindowRates{BinMs: w.BinWidth() * 1000}
	if first, rates := w.Rates(); len(rates) > 0 {
		wr.Bins = len(rates)
		wr.StartMs = float64(first) * w.BinWidth() * 1000
		wr.LastBinGbps = rates[len(rates)-1] * 8 / 1e9
		span := float64(len(rates)) * w.BinWidth()
		wr.DeliveredGbps = w.WindowTotal() * 8 / span / 1e9
		wr.GoodputGbps = tel.Goodput().WindowTotal() * 8 / span / 1e9
		wr.UplinkGbps = tel.Uplink().WindowTotal() * 8 / span / 1e9
	}
	wr.WindowTax = tel.WindowTax()
	s.Window = wr

	s.Classes = []ClassQuantiles{
		{"all", tel.Merged().Summary()},
		{"lowlat", tel.ClassSketch(int(sim.ClassLowLatency)).Summary()},
		{"bulk", tel.ClassSketch(int(sim.ClassBulk)).Summary()},
	}

	tags := tel.Tags()
	if len(tags) == 0 {
		return
	}
	names := make([]string, 0, len(tags))
	for name := range tags {
		names = append(names, name)
	}
	sort.Strings(names)
	s.Tags = make([]TagCounts, 0, len(names))
	for _, name := range names {
		t := tags[name]
		s.Tags = append(s.Tags, TagCounts{Tag: name, Done: t.Done, Total: t.Total, Bytes: t.Bytes,
			P99Us: t.Sketch.Summary().P99Us})
	}
}

// faultState reads the injector's live view and RotorLB's stranded-VLB
// gauge, nil while no fault is applied (a fault-free fabric strands
// nothing).
func faultState(cl *opera.Cluster) *FaultState {
	active := cl.Faults().ActiveFaults()
	if len(active) == 0 {
		return nil
	}
	fs := &FaultState{}
	if lb := cl.RotorLB(); lb != nil {
		fs.StrandedBytes = lb.StrandedBytes()
	}
	for _, a := range active {
		fs.Active = append(fs.Active, ActiveFault{Target: a.Target.String(), Fault: a.Fault.String()})
	}
	return fs
}
