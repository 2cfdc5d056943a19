package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sync"
	"time"

	"github.com/opera-net/opera/internal/eventsim"
	"github.com/opera-net/opera/internal/obs"
	"github.com/opera-net/opera/internal/routing"
	"github.com/opera-net/opera/internal/sim"
	"github.com/opera-net/opera/internal/sweep"
	"github.com/opera-net/opera/internal/topology"
	"github.com/opera-net/opera/scenario"
)

// outDir receives trace.json, results.json and CPU profiles; it is
// relative to the working directory, which `go run -C bench .` makes the
// benchmark's own directory.
const outDir = "out"

// cpuProfileHz is the sampling rate of the traced run's CPU profile: ten
// times the default, so a two-second run still resolves a 1 % share.
const cpuProfileHz = 1000

// runTraced is the traced run of one workload: the per-layer numbers,
// measured from outside. It runs the workload's specs in-process twice —
// untraced for the reference wall time, then with spans, source timing
// and a CPU profile — checks that tracing changed no result, and adds the
// sharded-path, observer, build and micro-cell measurements.
func runTraced(w workloadDef, seed int64, toy bool, command sweep.CommandFunc) rep {
	r := rep{Workload: w.name, Seed: seed, Layers: make(map[string]float64, len(perLayer))}
	L := r.Layers
	for _, m := range perLayer {
		L[m.name] = 0 // a metric that does not apply to the workload reads 0
	}
	specs := w.specs(seed, toy)
	tr := newTracer(w.name)

	plain := runLocal(specs, nil, 0)
	var plainWall float64
	plainResults := make([]scenario.Result, len(plain))
	for i, lr := range plain {
		plainWall += lr.wall.Seconds()
		plainResults[i] = lr.res
	}

	// The traced pass.
	runtime.GC()
	var prof bytes.Buffer
	// pprof.StartCPUProfile always asks for 100 Hz; setting the rate first
	// makes that request fail (with one line on stderr) and ours stand.
	runtime.SetCPUProfileRate(cpuProfileHz)
	if err := pprof.StartCPUProfile(&prof); err != nil {
		r.failf("cpu profile: %v", err)
		return r
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	root, endRoot := tr.begin("workload", 0)
	runs := runLocal(specs, tr, root)
	results := r.absorb(runs)
	var pass tracedPass
	blobs := make([][]byte, len(runs))
	for i, lr := range runs {
		if lr.cl == nil {
			continue
		}
		blob, err := pass.readOut(lr, tr, root)
		if err != nil {
			r.failf("%s: %v", lr.res.Name, err)
		}
		blobs[i] = blob
	}
	pooled, err := poolCollectors(blobs, tr, root)
	if err != nil {
		r.failf("%v", err)
	}
	endRoot()
	runtime.ReadMemStats(&m1)
	pprof.StopCPUProfile()
	r.summarize(w, results, pooled)

	for i := range results {
		if !results[i].Equal(plainResults[i]) {
			r.failf("%s: traced result differs from untraced", results[i].Name)
		}
	}

	// CPU attribution.
	samples, err := parseCPUProfile(prof.Bytes())
	if err != nil {
		r.failf("%v", err)
	}
	shares := cpuShares(samples)
	other := 1.0
	for _, layer := range cpuLayers {
		L[cpuMetric(layer)] = shares[layer]
		other -= shares[layer]
	}
	L["other.cpu_frac"] = other
	if len(samples) > 0 && other >= 0.10 && !toy {
		r.failf("other.cpu_frac = %.3f: samples are leaking out of the layer table", other)
	}
	if err := os.MkdirAll(outDir, 0o755); err == nil {
		// Kept for `go tool pprof`; losing it loses no reported number.
		_ = os.WriteFile(filepath.Join(outDir, "cpu_"+w.name+".pb.gz"), prof.Bytes(), 0o644)
	}

	// Accessors and spans of the traced pass.
	pass.fill(L)
	events := float64(r.SimEvents)
	L["eventsim.sim_events"] = events
	if r.Packets > 0 {
		L["eventsim.events_per_packet"] = events / r.Packets
	}
	if events > 0 {
		L["eventsim.ns_per_event"] = plainWall * 1e9 / events
	}
	L["sim.delivered_bytes"] = r.Packets * mtuBytes
	L["sim.bandwidth_tax"] = r.Tax
	steps := tr.millis("sim.step")
	L["sim.step_ms_p50"] = quantile(steps, 0.5)
	L["sim.step_ms_max"] = quantile(steps, 1)
	L["sim.readout_ms"] = sum(tr.millis("sim.readout"))
	L["scenario.spec_resolve_us"] = sum(tr.millis("scenario.spec_resolve")) * 1e3
	L["telemetry.marshal_us"] = sum(tr.millis("telemetry.marshal")) * 1e3
	L["telemetry.unmarshal_us"] = sum(tr.millis("telemetry.unmarshal")) * 1e3
	L["telemetry.merge_us"] = sum(tr.millis("telemetry.merge")) * 1e3
	for _, b := range blobs {
		L["telemetry.blob_bytes"] += float64(len(b))
	}
	L["runtime.gc_cycles"] = float64(m1.NumGC - m0.NumGC)
	L["runtime.gc_pause_ms"] = float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6
	L["runtime.mallocs"] = float64(m1.Mallocs - m0.Mallocs)
	L["runtime.heap_sys_mb"] = float64(m1.HeapSys) / 1e6
	if plainWall > 0 {
		L["trace.overhead_frac"] = (r.WallS - plainWall) / plainWall
	}

	// The sharded path: sweep.Run against RunLocal on the same specs.
	if w.sharded {
		r.tracedSweep(specs, results, command, tr)
	}

	// The observer: the first spec once more with an obs.Publisher
	// sampling every 100 µs of virtual time; the result must not change.
	var box obs.Mailbox
	watched := collectSpec(specs[0], nil, 0, obs.NewPublisher(&box, 100*eventsim.Microsecond))
	if !watched.res.Equal(plainResults[0]) {
		r.failf("%s: observed result differs from unobserved", specs[0].Name)
	}
	if base := plain[0].wall.Seconds(); base > 0 {
		L["obs.attached_overhead_frac"] = (watched.wall.Seconds() - base) / base
	}
	if snap := box.Snapshot(); snap != nil {
		L["obs.snapshots"] = float64(snap.Seq)
	}

	if err := buildSpans(specs[0], tr, L); err != nil {
		r.failf("build: %v", err)
	}
	if err := runCells(L); err != nil {
		r.failf("cells: %v", err)
	}
	r.Spans = tr.spans
	return r
}

func cpuMetric(layer string) string {
	switch layer {
	case "sim.port":
		return "sim.port_cpu_frac"
	case "sim.forward":
		return "sim.forward_cpu_frac"
	case layerGC:
		return "runtime.gc_cpu_frac"
	case layerAlloc:
		return "runtime.alloc_cpu_frac"
	}
	return layer + ".cpu_frac"
}

// tracedPass accumulates what the read-only accessors report after each
// spec of the traced pass.
type tracedPass struct {
	scheduled, cancelled uint64
	flows                int
	retransmits          int
	poolSend, poolRecv   int
	nacks                uint64
	stranded             int64
	slices               float64 // Opera slices elapsed
	sliceWallS, sliceKB  float64 // host time and allocation of the specs that have slices
	nextNs, nextCalls    int64
}

// readOut reads one finished run through the public accessors, times the
// FCT readout, and marshals the collector when the run kept one.
func (p *tracedPass) readOut(lr localRun, tr *tracer, parent int) (blob []byte, err error) {
	cl := lr.cl
	st := cl.Engine().Stats()
	p.scheduled += st.Scheduled
	p.cancelled += st.Cancelled
	_, total := cl.Metrics().DoneCount()
	p.flows += total
	for _, f := range cl.Metrics().Flows() {
		p.retransmits += f.Retransmits
	}
	if fab := cl.NDPFabric(); fab != nil {
		g := fab.PoolStats()
		p.poolSend += g.SendFree
		p.poolRecv += g.RecvFree
	}
	p.nacks += cl.BulkNACKCount()
	if lb := cl.RotorLB(); lb != nil {
		p.stranded += lb.StrandedBytes()
	}
	if on := cl.OperaNet(); on != nil {
		p.slices += float64(cl.Engine().Now()) / float64(on.SliceDuration())
		p.sliceWallS += lr.wall.Seconds()
		p.sliceKB += lr.allocKB
	}
	p.nextNs += lr.nextNs
	p.nextCalls += lr.nextCalls

	_, end := tr.begin("sim.readout", parent)
	if tel := cl.Metrics().Telemetry(); tel != nil {
		s := tel.Merged()
		_, _ = s.Quantile(0.5), s.Quantile(0.99)
	} else {
		s := cl.Metrics().FCTSample(nil)
		_, _ = s.Median(), s.P99()
	}
	end()

	if tel := cl.Metrics().Telemetry(); tel != nil {
		_, end := tr.begin("telemetry.marshal", parent)
		blob, err = tel.MarshalBinary()
		end()
	}
	return blob, err
}

func (p *tracedPass) fill(L map[string]float64) {
	L["eventsim.scheduled"] = float64(p.scheduled)
	L["eventsim.cancelled"] = float64(p.cancelled)
	L["sim.flows_total"] = float64(p.flows)
	L["ndp.retransmits"] = float64(p.retransmits)
	L["ndp.pool_send_free"] = float64(p.poolSend)
	L["ndp.pool_recv_free"] = float64(p.poolRecv)
	L["rotorlb.nacks"] = float64(p.nacks)
	L["rotorlb.stranded_bytes"] = float64(p.stranded)
	if p.slices > 0 {
		L["rotorlb.host_us_per_slice"] = p.sliceWallS * 1e6 / p.slices
		L["rotorlb.alloc_kb_per_slice"] = p.sliceKB / p.slices
	}
	L["workload.next_calls"] = float64(p.nextCalls)
	if p.nextCalls > 0 {
		L["workload.next_ns"] = float64(p.nextNs) / float64(p.nextCalls)
	}
}

// shardSink records one "sweep.shard" span per shard attempt.
type shardSink struct {
	tr     *tracer
	parent int

	mu         sync.Mutex
	dispatched map[[2]int]time.Time
}

func (s *shardSink) SweepStarted(int, int, int) {}
func (s *shardSink) ShardDispatched(round, shard int, _ []int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.dispatched[[2]int{round, shard}] = time.Now()
}
func (s *shardSink) ShardDone(round, shard int, _ []int, _ error) {
	s.mu.Lock()
	start := s.dispatched[[2]int{round, shard}]
	s.mu.Unlock()
	s.tr.add("sweep.shard", s.parent, start, time.Now())
}
func (s *shardSink) ResultDelivered(int, scenario.Result, []byte) {}
func (s *shardSink) SweepDone(int, []int)                         {}

// tracedSweep runs the sharded path with a progress sink, then the
// in-process reference at the same parallelism, and requires all three
// executions of the specs (traced in-process, sharded, RunLocal) to agree.
func (r *rep) tracedSweep(specs []scenario.Spec, want []scenario.Result, command sweep.CommandFunc, tr *tracer) {
	L := r.Layers
	id, end := tr.begin("sweep.run", 0)
	sink := &shardSink{tr: tr, parent: id, dispatched: make(map[[2]int]time.Time)}
	var sharded rep
	report, _ := sharded.runSharded(specs, command, sink)
	end()
	r.Errs = append(r.Errs, sharded.Errs...)

	// The reference needs the two Ps the two worker processes had.
	procs := runtime.GOMAXPROCS(2)
	_, end = tr.begin("sweep.run_local", 0)
	local, err := sweep.RunLocal(context.Background(), specs, 2)
	localWall := end().Seconds()
	runtime.GOMAXPROCS(procs)
	if err != nil {
		r.failf("sweep.RunLocal: %v", err)
	}
	for i := range want {
		if i >= len(report.Results) || !report.Results[i].Equal(want[i]) || !local.Results[i].Equal(want[i]) {
			r.failf("%s: sharded, local and in-process results differ", want[i].Name)
		}
	}
	shards := tr.millis("sweep.shard")
	L["sweep.shard_wall_ms_p50"] = quantile(shards, 0.5)
	L["sweep.shard_wall_ms_max"] = quantile(shards, 1)
	if sharded.WallS > 0 {
		L["sweep.overhead_frac"] = (sharded.WallS - localWall) / sharded.WallS
	}
	L["sweep.rounds"] = float64(report.Rounds)
	L["sweep.worker_errs"] = float64(len(report.WorkerErrs))
}

func orDefault(v, d int) int {
	if v == 0 {
		return d
	}
	return v
}

// buildSpans times the topology, routing-table and fabric builds on
// their own, at the spec's scale (zero sizing fields take opera.New's
// defaults: 16 racks x 4 hosts, 4 uplinks, Clos k=8 F=3).
func buildSpans(sp scenario.Spec, tr *tracer, L map[string]float64) error {
	racks, hosts, uplinks := orDefault(sp.Racks, 16), orDefault(sp.HostsPerRack, 4), orDefault(sp.Uplinks, 4)
	closK, closF := orDefault(sp.ClosK, 8), orDefault(sp.ClosF, 3)

	var maps []routing.PortMap
	_, end := tr.begin("topology.build", 0)
	var err error
	switch sp.Network {
	case "opera":
		var topo *topology.Opera
		topo, err = topology.NewOpera(topology.Config{NumRacks: racks, HostsPerRack: hosts,
			NumSwitches: uplinks, Seed: sp.Seed, MaxDiameter: sp.MaxSliceDiameter})
		if err == nil {
			maps = routing.OperaPortMaps(topo)
		}
	case "expander":
		var topo *topology.Expander
		topo, err = topology.NewExpander(racks, hosts, uplinks, sp.Seed)
		if err == nil {
			maps = routing.ExpanderPortMap(topo)
		}
	case "foldedclos":
		_, err = topology.NewFoldedClos(closK, closF)
	default:
		err = fmt.Errorf("no stand-alone build for network %q", sp.Network)
	}
	L["topology.build_ms"] = float64(end()) / 1e6
	if err != nil {
		return err
	}

	if maps != nil { // the folded Clos routes without tables
		_, end = tr.begin("routing.build", 0)
		_, err = routing.Build(maps)
		L["routing.build_ms"] = float64(end()) / 1e6
		if err != nil {
			return err
		}
	}

	_, end = tr.begin("sim.build", 0)
	_, err = sim.Build(sp.Network, sim.BuildParams{
		Engine: eventsim.New(), Sim: sim.DefaultConfig(),
		Racks: racks, HostsPerRack: hosts, Uplinks: uplinks, ClosK: closK, ClosF: closF,
		MaxSliceDiameter: sp.MaxSliceDiameter, Seed: sp.Seed,
	})
	L["sim.build_ms"] = float64(end()) / 1e6
	return err
}
