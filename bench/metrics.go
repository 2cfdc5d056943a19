package main

// A metric is one named number of the benchmark. BENCHMARK.json lists the
// same names, units, directions and bounds; bench_test.go fails when the
// two disagree.
type metric struct {
	name   string
	unit   string
	higher bool // true when a larger value is better
	// bound is the share of the baseline median by which the metric may
	// worsen before -compare (and the driver) calls it a regression.
	// Per-layer metrics have none.
	bound float64
	// fastest marks a host-time metric whose driver-form value is the
	// fastest repetition of the run, not the median: the workloads are
	// deterministic, so whatever else the host is doing can only add time,
	// and the minimum is the sample closest to the program's own cost.
	fastest bool
}

// endToEnd are the metrics a user of the simulator sees, reported for
// every workload. Each says which clock it is on: host (what the
// simulator costs to run) or simulated (what the modelled network did).
//
// The simulated metrics repeat exactly at a fixed seed, so at equal seeds
// any difference is a model change; their bounds are wide only because
// the driver reads the spread over runs with different seeds. The
// host-time bounds are the contract's cap: the 2-vCPU box this was written
// on sits on a shared host whose speed shifts by 10-15 % over minutes.
var endToEnd = []metric{
	// Host: spec resolution + opera.New + installing sources and fault
	// schedule, summed over the workload's clusters; median of repeated builds.
	{name: "setup_s", unit: "s", bound: 0.25},
	// Host: the run phase of one repetition — scenario.Collect minus
	// set-up; for the sharded workload the sweep.Run call plus decode and
	// merge of its collectors.
	{name: "wall_s", unit: "s", bound: 0.25, fastest: true},
	// Host: wall_s / (delivered payload bytes / MTU) — what one simulated
	// packet costs; falls when events get cheaper or fewer.
	{name: "ns_per_packet", unit: "ns", bound: 0.25, fastest: true},
	// Host: runtime.MemStats.TotalAlloc over the repetition (coordinator
	// plus worker processes for the sharded workload).
	{name: "alloc_mb", unit: "MB", bound: 0.15},
	// Host: VmHWM of the repetition's process (largest worker, from
	// RUSAGE_CHILDREN, for the sharded workload).
	{name: "peak_rss_mb", unit: "MB", bound: 0.10},
	// Simulated: p99 flow completion time of the workload's dominant class.
	{name: "sim_fct_p99_us", unit: "us", bound: 0.15},
	// Simulated: Result.ThroughputGbps (mean over a sweep's cells).
	{name: "sim_goodput_gbps", unit: "Gb/s", higher: true, bound: 0.20},
}

// values extracts the per-repetition end-to-end values of r (everything
// but setup_s, which the set-up child samples on its own).
func (r rep) values() map[string]float64 {
	v := map[string]float64{
		"wall_s":           r.WallS,
		"alloc_mb":         r.AllocMB,
		"peak_rss_mb":      r.PeakRSSMB,
		"sim_fct_p99_us":   r.P99Us,
		"sim_goodput_gbps": r.GoodputGbps,
	}
	if r.Packets > 0 {
		v["ns_per_packet"] = r.WallS * 1e9 / r.Packets
	}
	return v
}

// perLayer are the traced run's metrics, grouped by the module they
// measure. How each is taken (accessor, span, micro-cell, CPU share) and
// which end-to-end metric it should move is in README.md.
var perLayer = []metric{
	{name: "eventsim.sim_events", unit: "count"},
	{name: "eventsim.scheduled", unit: "count"},
	{name: "eventsim.cancelled", unit: "count"},
	{name: "eventsim.events_per_packet", unit: "ratio"},
	{name: "eventsim.ns_per_event", unit: "ns"},
	{name: "eventsim.cpu_frac", unit: "ratio"},
	{name: "eventsim.schedule_fire_ns", unit: "ns"},

	{name: "sim.port_cpu_frac", unit: "ratio"},
	{name: "sim.port_enqueue_ns", unit: "ns"},
	{name: "sim.port_enqueue_allocs", unit: "count"},
	{name: "sim.forward_cpu_frac", unit: "ratio"},
	{name: "sim.step_ms_p50", unit: "ms"},
	{name: "sim.step_ms_max", unit: "ms"},
	{name: "sim.flows_total", unit: "count", higher: true},
	{name: "sim.delivered_bytes", unit: "B", higher: true},
	{name: "sim.bandwidth_tax", unit: "ratio"},
	{name: "sim.flowdone_ns.retain_all", unit: "ns"},
	{name: "sim.flowdone_ns.retain_sketch", unit: "ns"},
	{name: "sim.readout_ms", unit: "ms"},
	{name: "sim.build_ms", unit: "ms"},

	{name: "topology.build_ms", unit: "ms"},
	{name: "routing.build_ms", unit: "ms"},
	{name: "routing.cpu_frac", unit: "ratio"},

	{name: "ndp.cpu_frac", unit: "ratio"},
	{name: "ndp.retransmits", unit: "count"},
	{name: "ndp.flow_roundtrip_us.1pkt", unit: "us"},
	{name: "ndp.flow_roundtrip_us.100pkt", unit: "us"},
	{name: "ndp.flow_allocs", unit: "count"},
	{name: "ndp.pool_send_free", unit: "count", higher: true},
	{name: "ndp.pool_recv_free", unit: "count", higher: true},

	{name: "rotorlb.cpu_frac", unit: "ratio"},
	{name: "rotorlb.nacks", unit: "count"},
	{name: "rotorlb.stranded_bytes", unit: "B"},
	{name: "rotorlb.host_us_per_slice", unit: "us"},
	{name: "rotorlb.alloc_kb_per_slice", unit: "kB"},

	{name: "workload.next_ns", unit: "ns"},
	{name: "workload.next_calls", unit: "count"},
	{name: "workload.cpu_frac", unit: "ratio"},

	{name: "telemetry.blob_bytes", unit: "B"},
	{name: "telemetry.marshal_us", unit: "us"},
	{name: "telemetry.unmarshal_us", unit: "us"},
	{name: "telemetry.merge_us", unit: "us"},
	{name: "telemetry.sketch_add_ns", unit: "ns"},
	{name: "telemetry.cpu_frac", unit: "ratio"},

	{name: "scenario.spec_resolve_us", unit: "us"},

	{name: "sweep.shard_wall_ms_p50", unit: "ms"},
	{name: "sweep.shard_wall_ms_max", unit: "ms"},
	{name: "sweep.overhead_frac", unit: "ratio"},
	{name: "sweep.rounds", unit: "count"},
	{name: "sweep.worker_errs", unit: "count"},

	{name: "obs.capture_us", unit: "us"},
	{name: "obs.attached_overhead_frac", unit: "ratio"},
	{name: "obs.snapshots", unit: "count", higher: true},

	{name: "runtime.gc_cpu_frac", unit: "ratio"},
	{name: "runtime.alloc_cpu_frac", unit: "ratio"},
	{name: "runtime.gc_cycles", unit: "count"},
	{name: "runtime.gc_pause_ms", unit: "ms"},
	{name: "runtime.mallocs", unit: "count"},
	{name: "runtime.heap_sys_mb", unit: "MB"},
	{name: "other.cpu_frac", unit: "ratio"},
	{name: "trace.overhead_frac", unit: "ratio"},
}
