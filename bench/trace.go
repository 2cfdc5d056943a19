package main

import (
	"sort"
	"sync"
	"time"

	opera "github.com/opera-net/opera"
	"github.com/opera-net/opera/internal/eventsim"
	"github.com/opera-net/opera/internal/workload"
	"github.com/opera-net/opera/scenario"
)

// A span is one timed interval recorded by the benchmark around a call
// into a layer. Spans are kept in memory and written to out/trace.json
// when the benchmark ends. Times are host nanoseconds since the tracer
// was created.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // 0 = root
	Name     string `json:"name"`
	Workload string `json:"workload"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
}

// tracer collects spans. A nil *tracer records nothing, so untraced runs
// pass nil and pay no clock reads. It is safe for concurrent use (the
// sweep's progress callbacks fire from coordinator goroutines).
type tracer struct {
	workload string
	epoch    time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, epoch: time.Now()}
}

// add records a finished interval and returns its id.
func (t *tracer) add(name string, parent int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Name: name, Workload: t.workload,
		StartNs: int64(start.Sub(t.epoch)), EndNs: int64(end.Sub(t.epoch)),
	})
	return id
}

// begin opens a span; the returned func closes it and reports the span's
// duration. Children started in between name the span as parent.
func (t *tracer) begin(name string, parent int) (id int, end func() time.Duration) {
	start := time.Now()
	if t == nil {
		return 0, func() time.Duration { return time.Since(start) }
	}
	t.mu.Lock()
	id = len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Workload: t.workload,
		StartNs: int64(start.Sub(t.epoch))})
	t.mu.Unlock()
	return id, func() time.Duration {
		now := time.Now()
		t.mu.Lock()
		t.spans[id-1].EndNs = int64(now.Sub(t.epoch))
		t.mu.Unlock()
		return now.Sub(start)
	}
}

// millis returns the durations of every span with the given name, in
// milliseconds, ascending.
func (t *tracer) millis(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.EndNs-s.StartNs)/1e6)
		}
	}
	sort.Float64s(out)
	return out
}

// selfMillis returns the summed self time of the named spans: duration
// minus the part covered by their direct children.
func (t *tracer) selfMillis(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make(map[int]int64)
	for _, s := range t.spans {
		child[s.Parent] += s.EndNs - s.StartNs
	}
	var ns int64
	for _, s := range t.spans {
		if s.Name == name {
			ns += s.EndNs - s.StartNs - child[s.ID]
		}
	}
	return float64(ns) / 1e6
}

// probe is the benchmark's scenario.Observer: Attach fires after the
// cluster is built and its sources and fault schedule are installed,
// immediately before the run starts, so its timestamp is the boundary
// between set-up and run. With a tracer it also rides one meta event per
// millisecond of virtual time (the obs.Publisher mechanism, which leaves
// Len, Steps and results untouched) and records the host time each
// simulated millisecond took as a "sim.step" span under parent.
type probe struct {
	attached time.Time
	// next, when set, is attached too (the obs.Publisher of the observer
	// measurement).
	next scenario.Observer

	tr     *tracer
	parent int
	eng    *eventsim.Engine
	until  eventsim.Time
	last   time.Time
}

func (p *probe) Attach(cl *opera.Cluster, deadline eventsim.Time) {
	if p.next != nil {
		p.next.Attach(cl, deadline)
	}
	p.attached = time.Now()
	if p.tr == nil {
		return
	}
	p.eng, p.until, p.last = cl.Engine(), deadline, p.attached
	p.eng.AtMetaCall(p.eng.Now()+eventsim.Millisecond, p, nil)
}

// OnEvent implements eventsim.Handler under the AtMetaCall contract:
// MetaStep first, re-arm only through ContinueMetaCall, never cancelled.
func (p *probe) OnEvent(any) {
	p.eng.MetaStep()
	now := time.Now()
	p.tr.add("sim.step", p.parent, p.last, now)
	p.last = now
	if p.eng.Now() < p.until {
		p.eng.ContinueMetaCall(eventsim.Millisecond, p, nil)
	}
}

// timedSource wraps the workload.Source handed to the cluster and times
// every Next call — the source pump's share, measured from outside.
type timedSource struct {
	src   workload.Source
	ns    *int64
	calls *int64
}

func (t *timedSource) Next() (workload.FlowSpec, bool) {
	start := time.Now()
	f, ok := t.src.Next()
	*t.ns += int64(time.Since(start))
	*t.calls++
	return f, ok
}
