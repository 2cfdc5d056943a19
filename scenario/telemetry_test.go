package scenario_test

import (
	"context"
	"math"
	"slices"
	"testing"

	"github.com/opera-net/opera/internal/eventsim"
	"github.com/opera-net/opera/internal/sim"
	"github.com/opera-net/opera/internal/stats"
	"github.com/opera-net/opera/scenario"
)

const sketchAlpha = 0.01

// fig7Cell is the (opera, load 0.25) cell of the Figure 7 sweep — the
// Datamining Poisson workload at the experiments SmallScale and the figure
// seed — with the retention policy under test. The workload is tagged so
// the per-tag sketch path is exercised alongside the per-class one.
// Datamining's multi-megabyte mean flow keeps arrival counts modest (the
// figure buckets for the same reason); the bracket assertions below hold
// at any N, and the statistical weight comes from the 50 000-sample
// sketch unit tests plus the root package's 100k-flow soak.
func fig7Cell(retention scenario.RetentionSpec) scenario.Scenario {
	return mustScenario(scenario.Spec{
		Name:    "fig7-dm",
		Network: "opera",
		Seed:    1, // the figure seed (SmallScale)
		Racks:   16, HostsPerRack: 4, Uplinks: 4,
		Retention: retention,
		Sources: []scenario.SourceSpec{{Type: "poisson", Dist: "datamining", Load: 0.25,
			Window: 20 * eventsim.Millisecond, MaxFlowBytes: 20_000_000, Tag: "dm"}},
		Duration: 300 * eventsim.Millisecond,
	})
}

// checkWithinBound asserts the sketch guarantee against the exact sample:
// the estimate must lie within ±alpha of the order statistics bracketing
// the type-7 rank of percentile p.
func checkWithinBound(t *testing.T, what string, got float64, exact *stats.Sample, p float64) {
	t.Helper()
	sorted := exact.Values()
	h := p / 100 * float64(len(sorted)-1)
	lo := sorted[int(math.Floor(h))]
	hi := sorted[int(math.Ceil(h))]
	if got < lo*(1-sketchAlpha)-1e-9 || got > hi*(1+sketchAlpha)+1e-9 {
		t.Errorf("%s p%v = %v outside sketch bound [%v, %v] (exact %v)",
			what, p, got, lo*(1-sketchAlpha), hi*(1+sketchAlpha), exact.Percentile(p))
	}
}

// RetainSketch reproduces the Fig 7 workload's tail statistics within the
// sketch's pinned error bound of the exact RetainAll values, while
// retaining no flows.
func TestRetainSketchMatchesExactOnFig7Workload(t *testing.T) {
	if testing.Short() {
		t.Skip("packet-level accuracy run in -short mode")
	}
	if raceEnabled {
		t.Skip("numeric accuracy check, nothing concurrent — skipped under -race")
	}
	// Exact side: default retention, raw flows from the finished cluster.
	cl, exactRes := scenario.Collect(fig7Cell(scenario.RetentionSpec{}))
	if exactRes.Err != "" {
		t.Fatal(exactRes.Err)
	}
	exactAll := cl.Metrics().FCTSample(nil)
	if exactAll.N() < 30 {
		t.Fatalf("Fig 7 cell produced only %d flows; accuracy check needs a spread of FCTs", exactAll.N())
	}

	sketch := scenario.RetentionSpec{Sketch: true, Alpha: sketchAlpha}
	skRes := scenario.Run(fig7Cell(sketch))
	if skRes.Err != "" {
		t.Fatal(skRes.Err)
	}
	if skRes.ErrorBound != sketchAlpha {
		t.Fatalf("ErrorBound = %v, want %v", skRes.ErrorBound, sketchAlpha)
	}

	// Same workload, same seeds, same arrivals: counts agree exactly.
	if skRes.FlowsTotal != exactRes.FlowsTotal || skRes.FlowsDone != exactRes.FlowsDone {
		t.Fatalf("flow counts diverge: sketch (%d/%d) vs exact (%d/%d)",
			skRes.FlowsDone, skRes.FlowsTotal, exactRes.FlowsDone, exactRes.FlowsTotal)
	}
	if skRes.All.N != exactAll.N() {
		t.Fatalf("All.N = %d, want %d", skRes.All.N, exactAll.N())
	}
	// Mean and throughput are exact in both modes (modulo float summation
	// order), as is the bandwidth tax.
	if rel := math.Abs(skRes.All.MeanUs-exactAll.Mean()) / exactAll.Mean(); rel > 1e-9 {
		t.Fatalf("mean diverges by %v relative", rel)
	}
	if rel := math.Abs(skRes.ThroughputGbps-exactRes.ThroughputGbps) / exactRes.ThroughputGbps; rel > 1e-9 {
		t.Fatalf("throughput diverges by %v relative", rel)
	}
	if skRes.AggregateTax != exactRes.AggregateTax {
		t.Fatalf("tax diverges: %v vs %v", skRes.AggregateTax, exactRes.AggregateTax)
	}

	checkWithinBound(t, "all", skRes.All.P50Us, exactAll, 50)
	checkWithinBound(t, "all", skRes.All.P99Us, exactAll, 99)
	checkWithinBound(t, "all", skRes.All.P999Us, exactAll, 99.9)
	if skRes.All.MaxUs != exactAll.Max() {
		t.Fatalf("max should be exact: %v vs %v", skRes.All.MaxUs, exactAll.Max())
	}

	// Per-tag sketches see the same flows (everything is tagged "dm").
	dm, ok := skRes.ByTag["dm"]
	if !ok {
		t.Fatal("sketch retention lost the per-tag breakdown")
	}
	if dm.FlowsTotal != exactRes.FlowsTotal || dm.FCT.N != exactAll.N() {
		t.Fatalf("tag counts diverge: %d/%d vs %d/%d", dm.FCT.N, dm.FlowsTotal, exactAll.N(), exactRes.FlowsTotal)
	}
	checkWithinBound(t, "tag dm", dm.FCT.P99Us, exactAll, 99)

	// And the flows really were released.
	skCl, _ := scenario.Collect(fig7Cell(sketch))
	if n := len(skCl.Metrics().Flows()); n != 0 {
		t.Fatalf("RetainSketch retained %d flows", n)
	}
}

// Sketch-retention sweeps stay deterministic across parallelism — the
// Result (including its sketch quantiles and trailing delivered series) is
// a pure function of the Scenario value.
func TestRetainSketchParallelDeterminism(t *testing.T) {
	mk := func() []scenario.Scenario {
		var scs []scenario.Scenario
		for _, network := range []string{"opera", "expander"} {
			for _, load := range []float64{0.02, 0.05} {
				scs = append(scs, mustScenario(scenario.Spec{
					Name: "sk", Network: network, Seed: 11,
					Retention: scenario.RetentionSpec{Sketch: true},
					Sources: []scenario.SourceSpec{{Type: "poisson", Dist: "websearch", Load: load,
						Window: 4 * eventsim.Millisecond, MaxFlowBytes: 1_000_000, Tag: "ws"}},
					Duration: 60 * eventsim.Millisecond,
				}))
			}
		}
		return scs
	}
	seq, err := scenario.RunScenarios(context.Background(), mk(), 1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := scenario.RunScenarios(context.Background(), mk(), 8)
	if err != nil {
		t.Fatal(err)
	}
	for i := range seq {
		if seq[i].Err != "" {
			t.Fatalf("scenario %d: %s", i, seq[i].Err)
		}
		if !seq[i].Equal(par[i]) {
			t.Fatalf("scenario %d diverges across parallelism:\nP1: %+v\nP8: %+v", i, seq[i], par[i])
		}
		if seq[i].ErrorBound == 0 || seq[i].All.N == 0 {
			t.Fatalf("scenario %d: no sketch summary: %+v", i, seq[i].All)
		}
	}
}

// A Result reads the same under both retentions: one small spec run under
// RetainAll and under RetainSketch fills the same fields, ErrorBound tells
// the two apart, and the sketch's percentiles are within α of the exact
// ones.
func TestResultReadsTheSameUnderBothRetentions(t *testing.T) {
	spec := func(retention scenario.RetentionSpec) scenario.Scenario {
		return mustScenario(scenario.Spec{
			Name: "contract", Network: "opera", Seed: 3, Retention: retention,
			Sources: []scenario.SourceSpec{{Type: "shuffle", Participants: 8, FlowBytes: 50_000,
				Stagger: 5 * eventsim.Millisecond}},
			Duration: 500 * eventsim.Millisecond,
		})
	}
	cl, exact := scenario.Collect(spec(scenario.RetentionSpec{}))
	sketch := scenario.Run(spec(scenario.RetentionSpec{Sketch: true, Alpha: sketchAlpha}))
	for _, r := range []scenario.Result{exact, sketch} {
		if r.Err != "" || !r.Completed || r.Hosts != 64 {
			t.Fatalf("%+v", r)
		}
		if r.All.P90Us <= 0 || r.All.P999Us <= 0 || r.DeliveredBinS != 0.001 ||
			len(r.DeliveredRates) == 0 || r.WindowTax <= 0 {
			t.Errorf("ErrorBound %v: readouts left empty: All=%+v DeliveredBinS=%v len(DeliveredRates)=%d WindowTax=%v",
				r.ErrorBound, r.All, r.DeliveredBinS, len(r.DeliveredRates), r.WindowTax)
		}
	}

	fcts := cl.Metrics().FCTSample(nil)
	if exact.ErrorBound != 0 || exact.DeliveredStartS != 0 || exact.WindowTax != exact.AggregateTax {
		t.Errorf("RetainAll: ErrorBound=%v DeliveredStartS=%v WindowTax=%v AggregateTax=%v",
			exact.ErrorBound, exact.DeliveredStartS, exact.WindowTax, exact.AggregateTax)
	}
	if exact.All.P90Us != fcts.Percentile(90) || exact.All.P999Us != fcts.Percentile(99.9) {
		t.Errorf("RetainAll p90/p99.9 = %v/%v, want the exact %v/%v",
			exact.All.P90Us, exact.All.P999Us, fcts.Percentile(90), fcts.Percentile(99.9))
	}

	if sketch.ErrorBound != sketchAlpha || sketch.BySize != nil {
		t.Errorf("RetainSketch: ErrorBound=%v BySize=%v", sketch.ErrorBound, sketch.BySize)
	}
	// The run is shorter than the sketch's trailing window, so the window
	// holds the whole delivered series.
	if !slices.Equal(sketch.DeliveredRates, exact.DeliveredRates) || sketch.DeliveredStartS != 0 ||
		sketch.WindowTax != exact.WindowTax {
		t.Errorf("RetainSketch series %v from %v s (tax %v), want RetainAll's %v from 0 (tax %v)",
			sketch.DeliveredRates, sketch.DeliveredStartS, sketch.WindowTax, exact.DeliveredRates, exact.WindowTax)
	}
	if sketch.All.N != fcts.N() {
		t.Fatalf("RetainSketch All.N = %d, want %d", sketch.All.N, fcts.N())
	}
	for _, q := range []struct {
		got float64
		p   float64
	}{{sketch.All.P50Us, 50}, {sketch.All.P90Us, 90}, {sketch.All.P99Us, 99}, {sketch.All.P999Us, 99.9}} {
		checkWithinBound(t, "all", q.got, fcts, q.p)
	}
}

// Fault events apply to RotorNet and compose with sketch retention.
func TestFaultEventsOnRotorNet(t *testing.T) {
	res := scenario.Run(mustScenario(scenario.Spec{
		Name: "rotor-faulted", Network: "rotornet", Seed: 5,
		Racks: 8, HostsPerRack: 2, Uplinks: 4,
		Retention: scenario.RetentionSpec{Sketch: true},
		Sources:   []scenario.SourceSpec{{Type: "shuffle", Participants: 8, FlowBytes: 100_000, Stagger: 100 * eventsim.Microsecond, Bulk: true}},
		Events: []scenario.EventSpec{
			{Target: sim.FlatLink(2, 1)},
			{At: 5 * eventsim.Millisecond, Op: "recover", Target: sim.FlatLink(2, 1)},
		},
		Duration: 2000 * eventsim.Millisecond,
	}))
	if res.Err != "" {
		t.Fatalf("fault events on rotornet should be supported: %s", res.Err)
	}
	if !res.Completed {
		t.Fatalf("faulted rotornet shuffle incomplete: %d/%d", res.FlowsDone, res.FlowsTotal)
	}
	if res.ErrorBound == 0 || res.Bulk.N != res.FlowsDone {
		t.Fatalf("sketch summary missing or inconsistent: ErrorBound=%v Bulk=%+v", res.ErrorBound, res.Bulk)
	}
}
