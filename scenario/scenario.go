// Package scenario turns single-cluster simulations into declarative,
// parallel parameter sweeps. A Spec describes one run as plain data — an
// architecture, its sizing, its traffic, a fault schedule, a deadline and
// a seed — and resolves into a Scenario; RunScenarios fans independent
// clusters out across goroutines and returns one Result per Scenario.
//
// Every cluster owns its event engine and randomness, so a Scenario's
// Result is a pure function of the Scenario value: RunScenarios produces
// identical Results at any parallelism, and sweeps can safely use all
// cores.
//
//	results, err := scenario.RunScenarios(ctx, []scenario.Scenario{
//		{Name: "opera", Kind: opera.KindOpera, Seed: 1,
//			Sources:  []scenario.Source{scenario.Shuffle(0, 100_000, 0)},
//			Duration: 2000 * eventsim.Millisecond},
//		{Name: "expander", Kind: opera.KindExpander, Seed: 1,
//			Sources:  []scenario.Source{scenario.Shuffle(0, 100_000, eventsim.Millisecond)},
//			Duration: 2000 * eventsim.Millisecond},
//	}, scenario.Parallelism(4))
package scenario

import (
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
	// Seed is the Scenario's seed.
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

// wrap applies f to the stream s builds while keeping an ending source's
// error and resource visible to Collect.
func wrap(s Source, f func(workload.Source) workload.Source) Source {
	return func(env Env) workload.Source {
		inner := s(env)
		if e, ok := inner.(ending); ok {
			return struct {
				workload.Source
				ending
			}{f(inner), e}
		}
		return f(inner)
	}
}

// Shuffle is an all-to-all shuffle of fixed-size flows (§5.2) among the
// first participants hosts (0 = all), with arrivals spread over stagger.
// Architectures quantize host counts differently (a k=8 folded Clos has
// 192 hosts vs the small testbed's 64); capping keeps one workload
// identical across them.
func Shuffle(participants int, flowBytes int64, stagger eventsim.Time) Source {
	return func(env Env) workload.Source {
		n := env.NumHosts
		if participants > 0 && participants < n {
			n = participants
		}
		return workload.FromSpecs(workload.Shuffle(n, flowBytes, stagger, env.Seed))
	}
}

// Poisson offers Poisson arrivals drawn from a flow-size distribution at a
// fraction of aggregate host bandwidth for the given window, streamed
// lazily at the cluster's configured link rate. maxFlowBytes caps sampled
// sizes (0 = unlimited).
func Poisson(dist *workload.FlowSizeDist, load float64, window eventsim.Time, maxFlowBytes int64) Source {
	return func(env Env) workload.Source {
		return workload.CapBytes(workload.PoissonSource(env.poisson(dist, load, window)), maxFlowBytes)
	}
}

// poisson is the open-loop arrival process calibrated to the cluster.
func (env Env) poisson(dist *workload.FlowSizeDist, load float64, window eventsim.Time) workload.PoissonConfig {
	return workload.PoissonConfig{
		NumHosts:     env.NumHosts,
		Load:         load,
		LinkRateGbps: env.LinkRateGbps,
		Duration:     window,
		Dist:         dist,
		Seed:         env.Seed,
	}
}

// Incast fires bursts of fanin simultaneous senders into one random
// receiver every period, bursts times (see workload.Incast).
func Incast(fanin int, bytes int64, period eventsim.Time, bursts int) Source {
	return func(env Env) workload.Source {
		return workload.Incast(workload.IncastConfig{
			NumHosts: env.NumHosts,
			Fanin:    fanin,
			Bytes:    bytes,
			Period:   period,
			Bursts:   bursts,
			Seed:     env.Seed,
		})
	}
}

// Fixed replays a precomputed flow list (copied per run, so scenarios may
// share one slice).
func Fixed(flows []workload.FlowSpec) Source {
	return func(Env) workload.Source { return workload.FromSpecs(flows) }
}

// TagSource labels every flow of a source; tagged flows produce per-tag
// breakdowns in Result.ByTag.
func TagSource(tag string, s Source) Source {
	return wrap(s, func(w workload.Source) workload.Source { return workload.TagSource(tag, w) })
}

// BulkSource application-tags every flow of a source for bulk service
// regardless of its size (§3.4) — the per-source form of
// opera.WithAppTaggedBulk, for mixed workloads where only one component is
// tagged.
func BulkSource(s Source) Source {
	return wrap(s, workload.BulkSource)
}

// Scenario is the resolved form of a Spec — an architecture, its sizing
// options, its sources, a fault schedule (Events, the Spec's own data) and
// a deadline — plus the process-local hooks that cannot be data: sampling
// Probes and a live Observer.
type Scenario struct {
	// Name labels the scenario in its Result.
	Name string
	// Kind picks the architecture; Options size it (applied after
	// WithSeed(Seed), so an explicit WithSeed among Options wins).
	Kind    opera.Kind
	Options []opera.Option
	// Sources feed flows into the cluster: each entry is built against the
	// concrete cluster (Env) and all entries run concurrently in virtual
	// time. Tagged flows (see TagSource) produce per-tag breakdowns in
	// Result.ByTag.
	Sources []Source
	// Events schedules fault injection and recovery at fixed virtual
	// times, e.g. {At: t, Target: sim.FlatLink(3, 2)} cuts a link.
	// fail-random-links draws from a generator derived from Seed, so the
	// schedule is as deterministic as the workload.
	Events []EventSpec
	// Probes sample the running cluster into Result.Probes time series
	// (see Sample).
	Probes []Probe
	// Duration is the RunUntilDone deadline in virtual time; the run ends
	// earlier once every flow completes or the event queue drains.
	Duration eventsim.Time
	// Seed seeds the cluster topology, the workload generator, and the
	// fault schedule's randomness.
	Seed int64
	// Observer, when non-nil, is attached to the built cluster just
	// before the run starts — the opt-in live-observation hook
	// (internal/obs.Publisher implements it). Observers sample through
	// the engine's meta-event surface and must be read-only: the Result
	// of an observed run is byte-identical to the unobserved run, which
	// TestObserverDeterminism asserts. Observers are process-local and
	// are not part of the Spec wire form.
	Observer Observer
}

// Observer is the live-observation hook of a Scenario: Attach is called
// with the built cluster and the run's deadline after workloads, fault
// schedules and probes are installed, immediately before RunUntilDone.
// Implementations schedule their sampling via the engine's meta-event
// entry points (eventsim.AtMetaCall) so the run's results, effort counts
// and early-exit behavior are unchanged by observation.
type Observer interface {
	Attach(cl *opera.Cluster, deadline eventsim.Time)
}

// FCTStats summarizes a flow-completion-time sample in microseconds.
// Under the default RetainAll retention the values are exact; under
// RetainSketch the percentiles come from the streaming sketch and carry
// its pinned relative-error bound (Result.Telemetry.ErrorBound) while N,
// MeanUs and MaxUs stay exact.
type FCTStats struct {
	N                           int
	MeanUs, P50Us, P99Us, MaxUs float64
}

func fctStats(s *stats.Sample) FCTStats {
	if s.N() == 0 {
		return FCTStats{}
	}
	return FCTStats{N: s.N(), MeanUs: s.Mean(), P50Us: s.Median(), P99Us: s.P99(), MaxUs: s.Max()}
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
// Scenario value: RunScenarios at any Parallelism yields identical
// Results for identical Scenarios, which tests assert with Equal (the
// ByTag and Probes fields make Result non-comparable with ==).
type Result struct {
	Name string
	Kind opera.Kind
	Seed int64

	// Completed reports whether every flow finished before Duration.
	Completed  bool
	FlowsDone  int
	FlowsTotal int

	// All, LowLat and Bulk summarize completion times of finished flows,
	// overall and per service class.
	All, LowLat, Bulk FCTStats

	// ByTag breaks flows down by workload tag (see TagSource); nil when the
	// workload is untagged.
	ByTag map[string]TagStats

	// Probes holds one recorded series per Scenario probe, in Probes
	// order; nil when the Scenario has none.
	Probes []ProbeSeries

	// Telemetry carries the streaming-retention summaries — extended
	// quantiles at the sketch's pinned error bound and the trailing
	// throughput/tax window — when the Scenario's Options include
	// opera.WithRetention(opera.RetainSketch(…)); nil under the default
	// RetainAll. Result.Equal covers it.
	Telemetry *TelemetrySummary

	// ThroughputGbps is delivered application bandwidth over the virtual
	// time actually simulated.
	ThroughputGbps float64
	// AggregateTax is the overall bandwidth tax (extra ToR-to-ToR
	// traversals per goodput byte).
	AggregateTax float64
	// BulkNACKs counts §4.2.2 circuit NACKs.
	BulkNACKs uint64
	// SimEvents counts discrete events executed.
	SimEvents uint64

	// Err is non-empty when the cluster could not be built, a hook could
	// not be scheduled, a source ended in error (a malformed trace), or the
	// run was cancelled; all measurement fields are then zero.
	Err string
}

// QuantileSummary is one sketch's quantile readout in microseconds: the
// paper's tail metrics plus the deeper tail a streaming soak exists to
// observe. N, MeanUs and MaxUs are exact; the percentiles carry the
// sketch's relative-error bound.
type QuantileSummary struct {
	N                                          int
	MeanUs, P50Us, P90Us, P99Us, P999Us, MaxUs float64
}

// TelemetrySummary reports a sketch-retention run: quantile summaries per
// service class and the trailing windowed series that replace the exact
// (unbounded) per-flow and per-bin records. Per-tag quantiles surface
// through Result.ByTag as usual; note that under sketch retention a tag's
// ThroughputGbps counts completed flows' bytes only (in-flight bytes fold
// in on completion).
type TelemetrySummary struct {
	// ErrorBound is the sketches' pinned relative-error bound α: every
	// reported percentile is within ±α of the exact order statistic.
	ErrorBound float64

	// All, LowLat and Bulk summarize completion times overall and per
	// service class.
	All, LowLat, Bulk QuantileSummary

	// WindowGbps is the trailing delivered-throughput window, oldest bin
	// first: WindowBinMs-wide bins starting at WindowStartMs of virtual
	// time. Older bins have rotated out (their bytes remain in
	// Result.ThroughputGbps, which is exact over the whole run).
	WindowBinMs   float64
	WindowStartMs float64
	WindowGbps    []float64

	// WindowTax is the bandwidth tax over the trailing window only —
	// the recent-behavior counterpart of Result.AggregateTax.
	WindowTax float64
}

// quantiles reads one sketch (telemetry.Sketch.Summary) into the Result's
// form.
func quantiles(s *telemetry.Sketch) QuantileSummary {
	q := s.Summary()
	return QuantileSummary{N: int(q.N), MeanUs: q.Mean,
		P50Us: q.P50, P90Us: q.P90, P99Us: q.P99, P999Us: q.P999, MaxUs: q.Max}
}

// fct is the FCTStats subset of q.
func (q QuantileSummary) fct() FCTStats {
	return FCTStats{N: q.N, MeanUs: q.MeanUs, P50Us: q.P50Us, P99Us: q.P99Us, MaxUs: q.MaxUs}
}

// Equal reports whether two Results are identical, including per-tag
// breakdowns, probe series and telemetry summaries — the determinism
// relation RunScenarios guarantees across Parallelism settings.
func (r Result) Equal(o Result) bool { return reflect.DeepEqual(r, o) }

// Collect runs one Scenario and returns the finished cluster alongside its
// Result, for callers that need raw flows or time series beyond the
// Result summary. The cluster is nil when the run failed (Result.Err).
func Collect(sc Scenario) (*opera.Cluster, Result) {
	res := Result{Name: sc.Name, Kind: sc.Kind, Seed: sc.Seed}
	opts := make([]opera.Option, 0, len(sc.Options)+1)
	opts = append(opts, opera.WithSeed(sc.Seed))
	opts = append(opts, sc.Options...)
	cl, err := opera.New(sc.Kind, opts...)
	if err != nil {
		res.Err = err.Error()
		return nil, res
	}
	env := Env{
		NumHosts:     cl.NumHosts(),
		HostsPerRack: cl.HostsPerRack(),
		LinkRateGbps: cl.Network().Config().LinkRateGbps,
		Seed:         sc.Seed,
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
	if len(sc.Events) > 0 {
		rng := rand.New(rand.NewSource(sc.Seed ^ eventSeedSalt))
		for _, es := range sc.Events {
			if err := schedule(cl.Faults(), rng, es); err != nil {
				res.Err = err.Error()
				return nil, res
			}
		}
	}
	probes, err := startProbes(cl, sc)
	if err != nil {
		res.Err = err.Error()
		return nil, res
	}
	if sc.Observer != nil {
		sc.Observer.Attach(cl, sc.Duration)
	}
	completed := cl.RunUntilDone(sc.Duration)
	cl.Stop()
	for _, e := range open {
		if err := e.Err(); err != nil {
			res.Err = err.Error()
			return nil, res
		}
	}
	res.Completed = completed

	m := cl.Metrics()
	elapsed := cl.Engine().Now().Seconds()
	res.FlowsDone, res.FlowsTotal = m.DoneCount()
	if tel := m.Telemetry(); tel != nil {
		fillFromTelemetry(&res, tel, elapsed)
	} else {
		summarize(&res, m, elapsed)
	}
	if elapsed > 0 {
		res.ThroughputGbps = m.DeliveredTotal() * 8 / elapsed / 1e9
	}
	res.Probes = probes
	res.AggregateTax = m.AggregateTax()
	res.BulkNACKs = cl.BulkNACKCount()
	res.SimEvents = cl.Engine().Steps()
	return cl, res
}

// summarize fills the Result's FCT and per-tag fields from retained flows
// in ONE pass over Metrics.Flows() — the overall and per-class samples and
// every tag tally accumulate together, where the former shape scanned the
// full flow list once per summary (4+ scans on a large sweep).
func summarize(res *Result, m *sim.Metrics, elapsedSeconds float64) {
	type tally struct {
		fct         stats.Sample
		done, total int
		bytesRcvd   int64
	}
	var all, lowLat, bulk stats.Sample
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
// were retained, so the FCT summaries, per-tag breakdown and the
// TelemetrySummary all come from the streaming collector.
func fillFromTelemetry(res *Result, tel *telemetry.Collector, elapsedSeconds float64) {
	all := quantiles(tel.Merged())
	lowLat := quantiles(tel.ClassSketch(int(sim.ClassLowLatency)))
	bulk := quantiles(tel.ClassSketch(int(sim.ClassBulk)))
	res.All, res.LowLat, res.Bulk = all.fct(), lowLat.fct(), bulk.fct()

	if tags := tel.Tags(); len(tags) > 0 {
		res.ByTag = make(map[string]TagStats, len(tags))
		for tag, t := range tags {
			ts := TagStats{FlowsDone: t.Done, FlowsTotal: t.Total, FCT: quantiles(t.Sketch).fct()}
			if elapsedSeconds > 0 {
				ts.ThroughputGbps = float64(t.Bytes) * 8 / elapsedSeconds / 1e9
			}
			res.ByTag[tag] = ts
		}
	}

	sum := &TelemetrySummary{
		ErrorBound: tel.Alpha(),
		All:        all,
		LowLat:     lowLat,
		Bulk:       bulk,
		WindowTax:  tel.WindowTax(),
	}
	w := tel.Delivered()
	sum.WindowBinMs = w.BinWidth() * 1000
	if first, rates := w.Rates(); len(rates) > 0 {
		sum.WindowStartMs = float64(first) * w.BinWidth() * 1000
		sum.WindowGbps = make([]float64, len(rates))
		for i, r := range rates {
			sum.WindowGbps[i] = r * 8 / 1e9
		}
	}
	res.Telemetry = sum
}

// Run executes one Scenario and returns its Result.
func Run(sc Scenario) Result {
	_, res := Collect(sc)
	return res
}
