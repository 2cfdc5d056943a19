// Package scenario turns single-cluster simulations into declarative,
// parallel parameter sweeps. A Spec describes one run as plain data — an
// architecture, its sizing, its traffic, a fault schedule, a deadline and
// a seed — and resolves into a Scenario; RunScenarios fans independent
// clusters out across goroutines and returns one Result per Scenario.
//
// Every cluster owns its event engine and randomness, so a Scenario's
// Result is a pure function of the Scenario value: RunScenarios produces
// identical Results at any parallelism, and sweeps can safely use all
// cores. The Result is the run's whole readout — the paper's figures are
// reductions of (Spec, Result) pairs, so a Result decoded from a sweep
// worker serves them as well as one from an in-process run. A Scenario's
// two process-local hooks, a Scheduler and a read-only Observer, change
// how a run is executed or watched, never its Result.
//
//	sc, err := scenario.Spec{Name: "opera", Network: "opera", Seed: 1,
//		Sources:  []scenario.SourceSpec{{Type: "shuffle", FlowBytes: 100_000}},
//		Duration: 2000 * eventsim.Millisecond}.Scenario()
//	…
//	results, err := scenario.RunScenarios(ctx, []scenario.Scenario{sc}, 4)
package scenario

import (
	"fmt"
	"math/rand"
	"reflect"

	opera "github.com/opera-net/opera"
	"github.com/opera-net/opera/internal/eventsim"
	"github.com/opera-net/opera/internal/sim"
	"github.com/opera-net/opera/internal/stats"
	"github.com/opera-net/opera/internal/telemetry"
	"github.com/opera-net/opera/internal/workload"
)

// Env describes the concrete cluster a Source will feed — the information
// a generator needs to calibrate itself, resolved after the cluster is
// built so generators adapt to the architecture's actual sizing.
type Env struct {
	NumHosts     int
	HostsPerRack int
	// LinkRateGbps is the cluster's configured host link rate, so offered
	// load fractions are correct on non-10G sizings.
	LinkRateGbps float64
	// Seed is the Spec's seed.
	Seed int64
}

// Source constructs a flow source for a concrete cluster. The cluster
// pulls it lazily — one arrival event at a time — so sources with millions
// of flows, or no end at all, run in O(active-flows) memory; a source that
// already holds its whole list (workload.FromSpecs) is scheduled in one
// shot. SourceSpec names the sources the repo's runs use; anything else is
// a func(Env) workload.Source written directly. A returned source that
// also has Err() error and Close() error methods (a trace replay) is
// closed by Collect after the run, and a non-nil Err fails the Result.
type Source func(env Env) workload.Source

// ending is the optional capability of a workload.Source that holds a
// resource and can end in error.
type ending interface {
	Err() error
	Close() error
}

// poisson is the open-loop arrival process calibrated to the cluster.
func (env Env) poisson(load float64, window eventsim.Time) workload.PoissonConfig {
	return workload.PoissonConfig{
		NumHosts:     env.NumHosts,
		Load:         load,
		LinkRateGbps: env.LinkRateGbps,
		Duration:     window,
		Seed:         env.Seed,
	}
}

// Scenario is one run: its Spec, the plain-data description Collect
// builds the cluster from, plus what cannot be data — the Sources the
// Spec's traffic resolves to and two process-local hooks, a Scheduler and
// a live Observer.
type Scenario struct {
	// Spec describes the run: architecture, sizing, retention, fault
	// schedule (Events), deadline (Duration) and seed. Spec.Scenario()
	// validates it; Collect reports what is wrong with a hand-built one in
	// Result.Err.
	Spec Spec
	// Sources feed flows into the cluster: each entry is built against the
	// concrete cluster (Env) and all entries run concurrently in virtual
	// time. Spec.Scenario() resolves them from Spec.Sources; Collect runs
	// these, not Spec.Sources, and fail a Scenario whose Spec has sources
	// but which has none itself. Tagged flows (see SourceSpec.Tag) produce
	// per-tag breakdowns in Result.ByTag.
	Sources []Source
	// Scheduler, when non-nil, is the engine's pending-event store in
	// place of the default timing wheel (opera.WithScheduler): the heap
	// oracle (eventsim.NewHeapScheduler) or a counting wrapper
	// (eventsim.CountKinds). Results are scheduler-independent. A
	// Scheduler holds one run's events, so a Scenario carrying one can be
	// run once.
	Scheduler eventsim.Scheduler
	// Observer, when non-nil, is attached to the built cluster just
	// before the run starts — the opt-in live-observation hook
	// (internal/obs.Publisher implements it). Observers sample through
	// the engine's meta-event surface and must be read-only: the Result
	// of an observed run is byte-identical to the unobserved run, which
	// TestObserverDeterminism asserts.
	Observer Observer
}

// Observer is the live-observation hook of a Scenario: Attach is called
// with the built cluster and the run's deadline after workloads and fault
// schedules are installed, immediately before RunUntilDone.
// Implementations schedule their sampling via the engine's meta-event
// entry points (eventsim.AtMetaCall) so the run's results, effort counts
// and early-exit behavior are unchanged by observation.
type Observer interface {
	Attach(cl *opera.Cluster, deadline eventsim.Time)
}

// FCTStats summarizes flow completion times in microseconds: the count,
// mean, p50, p90, p99, p99.9 and max. It is telemetry.Summary under its
// public name. Under the default RetainAll retention every value is exact;
// under RetainSketch the percentiles come from the streaming sketch and
// are within Result.ErrorBound of the exact order statistic, while N,
// MeanUs and MaxUs stay exact.
type FCTStats = telemetry.Summary

// fctStats is the exact FCTStats of a retained sample.
func fctStats(s *stats.Sample) FCTStats {
	if s.N() == 0 {
		return FCTStats{}
	}
	return FCTStats{N: s.N(), MeanUs: s.Mean(), P50Us: s.Median(), P90Us: s.Percentile(90),
		P99Us: s.P99(), P999Us: s.Percentile(99.9), MaxUs: s.Max()}
}

// sizeDecades is the flow-size decade table behind Result.BySize, the
// x-axis of the paper's FCT-vs-size figures (7 and 9): decade i holds the
// flows below bound i that are not below bound i−1.
var sizeDecades = [...]struct {
	below int64
	label string
}{
	{1_000, "<1KB"},
	{10_000, "1-10KB"},
	{100_000, "10-100KB"},
	{1_000_000, "100KB-1MB"},
	{10_000_000, "1-10MB"},
	{100_000_000, "10-100MB"},
	{1 << 62, ">=100MB"},
}

// SizeDecade labels Result.BySize[i]: "<1KB", "1-10KB", …, ">=100MB".
func SizeDecade(i int) string { return sizeDecades[i].label }

// sizeDecade returns the BySize index of a flow of size bytes.
func sizeDecade(size int64) int {
	for i, d := range sizeDecades {
		if size < d.below {
			return i
		}
	}
	return len(sizeDecades) - 1
}

// TagStats summarizes one workload tag's flows: completion counts, FCTs
// of the finished ones, and delivered application bandwidth over the
// virtual time simulated.
type TagStats struct {
	FlowsDone  int
	FlowsTotal int
	FCT        FCTStats
	// ThroughputGbps is the tag's delivered application bandwidth over
	// the virtual time actually simulated.
	ThroughputGbps float64
}

// Result reports one finished Scenario. It is a pure function of the
// Scenario value: RunScenarios at any parallelism yields identical
// Results for identical Scenarios, which tests assert with Equal (the
// ByTag map and the slices make Result non-comparable with ==). It reads
// the same under both retention policies: ErrorBound tells them apart,
// and only BySize is left empty under RetainSketch.
type Result struct {
	Name string
	Kind opera.Kind
	Seed int64

	// Hosts is the cluster's host count, the denominator of per-host
	// normalizations (the small folded Clos has 192 where Opera has 64).
	Hosts int

	// Completed reports whether every flow finished before Duration.
	Completed  bool
	FlowsDone  int
	FlowsTotal int

	// All, LowLat and Bulk summarize completion times of finished flows,
	// overall and per service class.
	All, LowLat, Bulk FCTStats

	// ErrorBound is 0 when the FCT percentiles are exact (the default
	// RetainAll) and the sketches' relative-error bound α under
	// RetainSketch: every reported percentile is then within ±α of the
	// exact order statistic.
	ErrorBound float64

	// BySize summarizes completion times of finished flows per flow-size
	// decade, labelled by SizeDecade(i); an empty decade is the zero
	// FCTStats. Filled under the default RetainAll only — nil under
	// RetainSketch.
	BySize []FCTStats

	// DeliveredRates is the delivered application bandwidth in bytes/s per
	// DeliveredBinS-wide bin of virtual time, oldest first, the first bin
	// starting at DeliveredStartS seconds. Under RetainAll it covers the
	// whole run from t = 0; under RetainSketch it is the trailing window,
	// whose older bins have rotated out (their bytes remain in
	// ThroughputGbps).
	DeliveredBinS   float64
	DeliveredStartS float64
	DeliveredRates  []float64

	// ByTag breaks flows down by workload tag (see SourceSpec.Tag); nil when the
	// workload is untagged. Under RetainSketch a tag's ThroughputGbps
	// counts completed flows' bytes only.
	ByTag map[string]TagStats

	// ThroughputGbps is delivered application bandwidth over the virtual
	// time actually simulated.
	ThroughputGbps float64
	// AggregateTax is the overall bandwidth tax (extra ToR-to-ToR
	// traversals per goodput byte).
	AggregateTax float64
	// WindowTax is the bandwidth tax over the span DeliveredRates covers:
	// the whole run, so AggregateTax, under RetainAll.
	WindowTax float64
	// BulkNACKs counts §4.2.2 circuit NACKs.
	BulkNACKs uint64
	// SimEvents counts discrete events executed.
	SimEvents uint64

	// Err is non-empty when the cluster could not be built, a hook could
	// not be scheduled, a source ended in error (a malformed trace), or the
	// run was cancelled; all measurement fields are then zero.
	Err string
}

// Equal reports whether two Results are identical, including per-tag
// breakdowns and series — the determinism
// relation RunScenarios guarantees across parallelism settings.
func (r Result) Equal(o Result) bool { return reflect.DeepEqual(r, o) }

// Collect runs one Scenario and returns the finished cluster alongside its
// Result, for callers that own state the Result does not carry (a sweep
// worker's telemetry collector). It is the one place a Spec becomes
// cluster options. The cluster is nil when the run failed (Result.Err).
func Collect(sc Scenario) (*opera.Cluster, Result) {
	sp := sc.Spec
	res, err := sp.header()
	if err == nil && len(sc.Sources) == 0 && len(sp.Sources) > 0 {
		err = fmt.Errorf("scenario: spec %q: Sources are unresolved; build the Scenario with Spec.Scenario()", sp.Name)
	}
	if err != nil {
		res.Err = err.Error()
		return nil, res
	}
	opts := sp.options()
	if sc.Scheduler != nil {
		opts = append(opts, opera.WithScheduler(sc.Scheduler))
	}
	cl, err := opera.New(res.Kind, opts...)
	if err != nil {
		res.Err = err.Error()
		return nil, res
	}
	env := Env{
		NumHosts:     cl.NumHosts(),
		HostsPerRack: cl.HostsPerRack(),
		LinkRateGbps: cl.Network().Config().LinkRateGbps,
		Seed:         sp.Seed,
	}
	var open []ending
	defer func() {
		for _, e := range open {
			e.Close()
		}
	}()
	for _, s := range sc.Sources {
		if s == nil {
			continue
		}
		src := s(env)
		if e, ok := src.(ending); ok {
			open = append(open, e)
		}
		cl.AddSource(src)
	}
	if len(sp.Events) > 0 {
		rng := rand.New(rand.NewSource(sp.Seed ^ eventSeedSalt))
		for _, es := range sp.Events {
			if err := schedule(cl.Faults(), rng, es); err != nil {
				res.Err = err.Error()
				return nil, res
			}
		}
	}
	if sc.Observer != nil {
		sc.Observer.Attach(cl, sp.Duration)
	}
	completed := cl.RunUntilDone(sp.Duration)
	cl.Stop()
	for _, e := range open {
		if err := e.Err(); err != nil {
			res.Err = err.Error()
			return nil, res
		}
	}
	res.Completed = completed
	res.Hosts = cl.NumHosts()

	m := cl.Metrics()
	elapsed := cl.Engine().Now().Seconds()
	res.FlowsDone, res.FlowsTotal = m.DoneCount()
	res.AggregateTax = m.AggregateTax()
	if tel := m.Telemetry(); tel != nil {
		fillFromTelemetry(&res, tel, elapsed)
	} else {
		summarize(&res, m, elapsed)
		res.WindowTax = res.AggregateTax
	}
	if elapsed > 0 {
		res.ThroughputGbps = m.DeliveredTotal() * 8 / elapsed / 1e9
	}
	res.BulkNACKs = cl.BulkNACKCount()
	res.SimEvents = cl.Engine().Steps()
	return cl, res
}

// summarize fills the Result's FCT, per-size, per-tag and delivered-series
// fields from retained flows in ONE pass over Metrics.Flows() — the
// overall, per-class and per-decade samples and every tag tally accumulate
// together, where the former shape scanned the full flow list once per
// summary (4+ scans on a large sweep).
func summarize(res *Result, m *sim.Metrics, elapsedSeconds float64) {
	type tally struct {
		fct         stats.Sample
		done, total int
		bytesRcvd   int64
	}
	var all, lowLat, bulk stats.Sample
	var bySize [len(sizeDecades)]stats.Sample
	var tallies map[string]*tally
	for _, f := range m.Flows() {
		if f.Tag != "" {
			if tallies == nil {
				tallies = make(map[string]*tally)
			}
			t := tallies[f.Tag]
			if t == nil {
				t = &tally{}
				tallies[f.Tag] = t
			}
			t.total++
			t.bytesRcvd += f.BytesRcvd
			if f.Done {
				t.done++
				t.fct.Add(f.FCT().Micros())
			}
		}
		if !f.Done {
			continue
		}
		v := f.FCT().Micros()
		all.Add(v)
		bySize[sizeDecade(f.Size)].Add(v)
		switch f.Class {
		case sim.ClassLowLatency:
			lowLat.Add(v)
		case sim.ClassBulk:
			bulk.Add(v)
		}
	}
	res.All = fctStats(&all)
	res.LowLat = fctStats(&lowLat)
	res.Bulk = fctStats(&bulk)
	res.BySize = make([]FCTStats, len(bySize))
	for i := range bySize {
		res.BySize[i] = fctStats(&bySize[i])
	}
	res.DeliveredBinS = m.DeliveredBytes.BinWidth()
	if m.DeliveredBytes.NumBins() > 0 { // nil, not empty, as gob decodes it
		res.DeliveredRates = m.DeliveredBytes.Rates()
	}
	if len(tallies) == 0 {
		return
	}
	res.ByTag = make(map[string]TagStats, len(tallies))
	for tag, t := range tallies {
		ts := TagStats{FlowsDone: t.done, FlowsTotal: t.total, FCT: fctStats(&t.fct)}
		if elapsedSeconds > 0 {
			ts.ThroughputGbps = float64(t.bytesRcvd) * 8 / elapsedSeconds / 1e9
		}
		res.ByTag[tag] = ts
	}
}

// fillFromTelemetry is summarize's sketch-retention counterpart: no flows
// were retained, so the FCT summaries, per-tag breakdown, delivered series
// and window tax all come from the streaming collector.
func fillFromTelemetry(res *Result, tel *telemetry.Collector, elapsedSeconds float64) {
	res.ErrorBound = tel.Alpha()
	res.All = tel.Merged().Summary()
	res.LowLat = tel.ClassSketch(int(sim.ClassLowLatency)).Summary()
	res.Bulk = tel.ClassSketch(int(sim.ClassBulk)).Summary()

	if tags := tel.Tags(); len(tags) > 0 {
		res.ByTag = make(map[string]TagStats, len(tags))
		for tag, t := range tags {
			ts := TagStats{FlowsDone: t.Done, FlowsTotal: t.Total, FCT: t.Sketch.Summary()}
			if elapsedSeconds > 0 {
				ts.ThroughputGbps = float64(t.Bytes) * 8 / elapsedSeconds / 1e9
			}
			res.ByTag[tag] = ts
		}
	}

	w := tel.Delivered()
	res.DeliveredBinS = w.BinWidth()
	if first, rates := w.Rates(); len(rates) > 0 {
		res.DeliveredStartS = float64(first) * w.BinWidth()
		res.DeliveredRates = rates
	}
	res.WindowTax = tel.WindowTax()
}

// Run executes one Scenario and returns its Result.
func Run(sc Scenario) Result {
	_, res := Collect(sc)
	return res
}
