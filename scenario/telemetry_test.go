package scenario_test

import (
	"context"
	"fmt"
	"math"
	"slices"
	"testing"

	"github.com/opera-net/opera/internal/eventsim"
	"github.com/opera-net/opera/internal/sim"
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

// checkWithinBound asserts the sketch guarantee against the exact flow
// completion times m retained: the estimate must lie within ±alpha of the
// order statistics bracketing the type-7 rank of percentile p.
func checkWithinBound(t *testing.T, what string, got float64, m *sim.Metrics, p float64) {
	t.Helper()
	var sorted []float64
	for _, f := range m.Flows() {
		if f.Done {
			sorted = append(sorted, f.FCT().Micros())
		}
	}
	slices.Sort(sorted)
	h := p / 100 * float64(len(sorted)-1)
	lo := sorted[int(math.Floor(h))]
	hi := sorted[int(math.Ceil(h))]
	if got < lo*(1-sketchAlpha)-1e-9 || got > hi*(1+sketchAlpha)+1e-9 {
		t.Errorf("%s p%v = %v outside sketch bound [%v, %v] (exact %v)",
			what, p, got, lo*(1-sketchAlpha), hi*(1+sketchAlpha), m.FCTSample(nil).Percentile(p))
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

	checkWithinBound(t, "all", skRes.All.P50Us, cl.Metrics(), 50)
	checkWithinBound(t, "all", skRes.All.P99Us, cl.Metrics(), 99)
	checkWithinBound(t, "all", skRes.All.P999Us, cl.Metrics(), 99.9)
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
	checkWithinBound(t, "tag dm", dm.FCT.P99Us, cl.Metrics(), 99)

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
		checkWithinBound(t, "all", q.got, cl.Metrics(), q.p)
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

// Retention is observation, not behaviour: a run under RetainSketch does
// what the same run under RetainAll does, and reads the same within the
// sketch's bound. The bulk shuffles leave RotorLB alone to decide their
// flows' fate; their source is tagged, so the cluster pumps it lazily and
// RetainSketch recycles the flows' records as they finish. Outside -short
// the fabric golden's specs and churnSpec add NDP traffic, trimmed
// stragglers of finished flows included.
func TestRetentionIsInvisible(t *testing.T) {
	if raceEnabled {
		t.Skip("numeric relation, nothing concurrent — skipped under -race")
	}
	var specs []scenario.Spec
	for _, network := range []string{"opera", "rotornet", "rotornet-hybrid"} {
		for seed := int64(1); seed <= 2; seed++ {
			specs = append(specs, scenario.Spec{
				Name: "invisible/bulk", Network: network, Seed: seed,
				Sources: []scenario.SourceSpec{{Type: "shuffle", Participants: 24, FlowBytes: 200_000,
					Stagger: eventsim.Millisecond, Tag: "bulk", Bulk: true}},
				Duration: 200 * eventsim.Millisecond,
			})
		}
	}
	if !testing.Short() {
		specs = append(specs, goldenSpecs(t)...)
		specs = append(specs, churnSpec(3), churnSpec(6))
	}
	for _, sp := range specs {
		what := fmt.Sprintf("%s %s seed %d", sp.Name, sp.Network, sp.Seed)
		cl, exact := scenario.Collect(mustScenario(sp))
		sp.Retention = scenario.RetentionSpec{Sketch: true, Alpha: sketchAlpha}
		sketch := scenario.Run(mustScenario(sp))
		if exact.Err != "" || sketch.Err != "" {
			t.Fatalf("%s: %q / %q", what, exact.Err, sketch.Err)
		}
		if sp.Name == "invisible/bulk" && (exact.FlowsTotal != 24*23 || exact.LowLat.N != 0) {
			t.Fatalf("%s: %d flows, %d over NDP; want %d bulk flows", what, exact.FlowsTotal, exact.LowLat.N, 24*23)
		}
		if sketch.FlowsDone != exact.FlowsDone || sketch.FlowsTotal != exact.FlowsTotal ||
			sketch.BulkNACKs != exact.BulkNACKs || sketch.SimEvents != exact.SimEvents ||
			sketch.ThroughputGbps != exact.ThroughputGbps || sketch.AggregateTax != exact.AggregateTax {
			t.Errorf("%s: sketch run done %d/%d, %d NACKs, %d events, %v Gb/s, tax %v; exact run %d/%d, %d, %d, %v, %v",
				what, sketch.FlowsDone, sketch.FlowsTotal, sketch.BulkNACKs, sketch.SimEvents, sketch.ThroughputGbps, sketch.AggregateTax,
				exact.FlowsDone, exact.FlowsTotal, exact.BulkNACKs, exact.SimEvents, exact.ThroughputGbps, exact.AggregateTax)
			continue
		}
		if sketch.All.N != exact.All.N {
			t.Errorf("%s: sketch summarizes %d flows, exact %d", what, sketch.All.N, exact.All.N)
		} else if exact.All.N > 0 {
			checkWithinBound(t, what+" all", sketch.All.P50Us, cl.Metrics(), 50)
			checkWithinBound(t, what+" all", sketch.All.P99Us, cl.Metrics(), 99)
		}
	}
}

// churnSpec is a 150 ms slice of the benchmark's churn_sweep cell on
// Opera: short websearch flows and 16-way incasts over NDP, with a lossy
// and a flapping link, so trimmed stragglers reach receivers of flows that
// already finished. At seeds 3 and 6 a receiver that answered those
// stragglers by retention policy ran a different number of events under
// each.
func churnSpec(seed int64) scenario.Spec {
	const ms = eventsim.Millisecond
	window := 150 * ms
	return scenario.Spec{
		Name: "invisible/churn", Network: "opera", Seed: seed,
		Sources: []scenario.SourceSpec{
			{Type: "poisson", Dist: "websearch", Load: 0.9, Window: window, MaxFlowBytes: 10_000, Tag: "rpc"},
			{Type: "incast", Fanin: 16, FlowBytes: 20_000, Period: 2 * ms, Bursts: 75, Tag: "incast"},
		},
		Events: []scenario.EventSpec{
			{At: 20 * ms, Target: sim.FlatLink(3, 2), Fault: sim.Fault{Kind: sim.FaultLossy, Rate: 0.01}},
			{At: 100 * ms, Op: "recover", Target: sim.FlatLink(3, 2)},
			{At: 40 * ms, Target: sim.FlatLink(5, 1), Fault: sim.Fault{Kind: sim.FaultFlapping, Up: 2 * ms, Down: ms}},
			{At: 110 * ms, Op: "recover", Target: sim.FlatLink(5, 1)},
		},
		Duration: window + 500*ms,
	}
}
