package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	opera "github.com/opera-net/opera"
	"github.com/opera-net/opera/internal/eventsim"
	"github.com/opera-net/opera/internal/obs"
	"github.com/opera-net/opera/internal/sim"
	"github.com/opera-net/opera/internal/telemetry"
	"github.com/opera-net/opera/internal/workload"
)

// The micro-cells drive one layer's public functions stand-alone, so a
// layer's unit cost can be read beside its share of a whole run. They do
// not depend on the workload; the traced run of every workload reports
// them. Each runs a fixed operation count and reports the mean per
// operation.

// cellScale divides every cell's operation count; the toy-scale test run
// sets it so the cells cost milliseconds.
var cellScale = 1

// perOp times n/cellScale calls of op after warm calls and returns the
// mean nanoseconds and heap allocations per call.
func perOp(warm, n int, op func(i int)) (ns, allocs float64) {
	n = max(n/cellScale, 1)
	for i := 0; i < warm; i++ {
		op(i)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for i := 0; i < n; i++ {
		op(i)
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&m1)
	return float64(elapsed) / float64(n), float64(m1.Mallocs-m0.Mallocs) / float64(n)
}

// denseDeltas is the near-monotonic schedule pattern of the packet hot
// path: serialization times, propagation delays, pacing gaps and slice
// ticks, from sub-µs to just under the timing wheel's horizon.
var denseDeltas = []eventsim.Time{
	720, 500, 1500, 5 * eventsim.Microsecond, 720, 40 * eventsim.Microsecond, 1200,
	180 * eventsim.Microsecond, 500, 950 * eventsim.Microsecond, 9 * eventsim.Microsecond, 720,
}

type nopHandler struct{}

func (nopHandler) OnEvent(any) {}

// chainHandler re-arms the firing event, the per-packet chain shape.
type chainHandler struct {
	eng *eventsim.Engine
	i   int
}

func (h *chainHandler) OnEvent(any) {
	h.i++
	h.eng.ContinueCall(denseDeltas[h.i%len(denseDeltas)], h, nil)
}

// cellScheduleFire is the scheduler core at a 4096-event backlog: half
// the operations schedule a fresh event with AtCall and fire one, half
// fire an event that re-arms itself with ContinueCall.
func cellScheduleFire() (ns float64) {
	const backlog, n = 4096, 1 << 20
	eng := eventsim.New()
	for i := 0; i < backlog; i++ {
		eng.AtCall(denseDeltas[i%len(denseDeltas)], nopHandler{}, nil)
	}
	fresh, _ := perOp(backlog, n, func(i int) {
		eng.AtCall(eng.Now()+denseDeltas[i%len(denseDeltas)], nopHandler{}, nil)
		eng.Step()
	})

	eng = eventsim.New()
	chain := &chainHandler{eng: eng}
	for i := 0; i < backlog; i++ {
		eng.AtCall(denseDeltas[i%len(denseDeltas)], chain, nil)
	}
	rearm, _ := perOp(backlog, n, func(int) { eng.Step() })
	return (fresh + rearm) / 2
}

type drainNode struct{}

func (drainNode) Receive(p *sim.Packet, _ *sim.Port) { p.Release() }

// cellPortEnqueue is the packet hot path: one MTU packet through an
// uncontended port (classify, queue, serialize, propagate) into a sink.
func cellPortEnqueue() (ns, allocs float64) {
	eng := eventsim.New()
	cfg := sim.DefaultConfig()
	pt := sim.NewPort(eng, &cfg, "cell", drainNode{})
	step := cfg.SerializationDelay(cfg.MTU) + cfg.PropDelay
	return perOp(1<<12, 1<<20, func(int) {
		p := sim.NewPacket()
		p.Kind = sim.KindData
		p.Class = sim.ClassLowLatency
		p.Size = int32(cfg.MTU)
		p.PayloadSize = int32(cfg.MTU)
		pt.Enqueue(p)
		eng.RunUntil(eng.Now() + step)
	})
}

// cellFlowDone is the per-completion Metrics cost under a retention
// policy: AddFlow plus FlowDone for one synthetic flow.
func cellFlowDone(r sim.RetentionPolicy) (ns float64) {
	m := sim.NewMetrics()
	m.SetRetention(r)
	ns, _ = perOp(1<<10, 1<<19, func(i int) {
		f := &sim.Flow{ID: int64(i), Size: 10_000, Class: sim.ClassLowLatency, Start: eventsim.Time(i)}
		m.AddFlow(f)
		m.FlowDone(f, eventsim.Time(i)+1500)
	})
	return ns
}

// cellFlowRoundTrip sends one flow at a time across an idle 16x4 static
// expander under sketch retention (AddFlow, then RunUntilDone) and
// returns the mean host µs and allocations per flow. The expander has no
// slot clocks, so the cost is flow set-up, the NDP exchange and
// tear-down through the free lists.
func cellFlowRoundTrip(bytes int64, n int) (us, allocs float64, err error) {
	cl, err := opera.New(opera.KindExpander, opera.WithRetention(opera.RetainSketch(opera.SketchOptions{})))
	if err != nil {
		return 0, 0, err
	}
	hosts := cl.NumHosts()
	ns, allocs := perOp(64, n, func(i int) {
		now := cl.Engine().Now()
		cl.AddFlow(workload.FlowSpec{Src: i % hosts, Dst: (i + hosts/2) % hosts, Bytes: bytes, Arrival: now})
		cl.RunUntilDone(now + 100*eventsim.Millisecond)
	})
	if done, total := cl.Metrics().DoneCount(); done != total {
		return 0, 0, fmt.Errorf("%d of %d round-trip flows incomplete", total-done, total)
	}
	return ns / 1e3, allocs, nil
}

// cellSketchAdd is the per-observation cost of the quantile sketch, on
// pre-drawn log-normal values.
func cellSketchAdd() (ns float64) {
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, 1<<14)
	for i := range xs {
		xs[i] = math.Exp(rng.NormFloat64()*2 + 5)
	}
	s := telemetry.NewSketch(0.01)
	ns, _ = perOp(len(xs), 1<<22, func(i int) { s.Add(xs[i&(len(xs)-1)]) })
	return ns
}

// cellObsCapture is one obs.Capture of a cluster that has run a burst of
// flows under sketch retention — the cost of one status sample.
func cellObsCapture() (us float64, err error) {
	cl, err := opera.New(opera.KindOpera, opera.WithRetention(opera.RetainSketch(opera.SketchOptions{})))
	if err != nil {
		return 0, err
	}
	cl.AddFlows(workload.Shuffle(cl.NumHosts(), 3_000, 0, 1))
	cl.RunUntilDone(50 * eventsim.Millisecond)
	var sink *obs.Snapshot
	ns, _ := perOp(16, 2000, func(int) { sink = obs.Capture(cl) })
	_ = sink
	return ns / 1e3, nil
}

// runCells fills the workload-independent per-layer metrics.
func runCells(m map[string]float64) error {
	m["eventsim.schedule_fire_ns"] = cellScheduleFire()
	m["sim.port_enqueue_ns"], m["sim.port_enqueue_allocs"] = cellPortEnqueue()
	m["sim.flowdone_ns.retain_all"] = cellFlowDone(sim.RetainAll())
	m["sim.flowdone_ns.retain_sketch"] = cellFlowDone(sim.RetainSketch(telemetry.Opts{}))
	var err error
	if m["ndp.flow_roundtrip_us.1pkt"], m["ndp.flow_allocs"], err = cellFlowRoundTrip(1_000, 4000); err != nil {
		return err
	}
	if m["ndp.flow_roundtrip_us.100pkt"], _, err = cellFlowRoundTrip(150_000, 400); err != nil {
		return err
	}
	m["telemetry.sketch_add_ns"] = cellSketchAdd()
	if m["obs.capture_us"], err = cellObsCapture(); err != nil {
		return err
	}
	return nil
}
