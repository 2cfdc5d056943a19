package scenario_test

import (
	"context"
	"strings"
	"testing"

	"github.com/opera-net/opera/internal/eventsim"
	"github.com/opera-net/opera/internal/sim"
	"github.com/opera-net/opera/internal/workload"
	"github.com/opera-net/opera/scenario"
)

// hookSweep is a batch exercising every hook at once: tagged mixed
// workloads and a fault-and-recovery schedule (Opera only — the injector
// is rotor-specific).
func hookSweep() []scenario.Scenario {
	var scs []scenario.Scenario
	for _, seed := range []int64{1, 2, 3} {
		scs = append(scs, mustScenario(scenario.Spec{
			Name:    "opera-hooks",
			Network: "opera",
			Seed:    seed,
			// Every flow of both shuffles rides the bulk class.
			AppTaggedBulk: true,
			Sources: []scenario.SourceSpec{
				{Type: "shuffle", Participants: 10, FlowBytes: 25_000, Stagger: eventsim.Millisecond, Tag: "east"},
				{Type: "shuffle", Participants: 4, FlowBytes: 10_000, Stagger: eventsim.Millisecond, Bulk: true, Tag: "west"},
			},
			Events: []scenario.EventSpec{
				{At: 200 * eventsim.Microsecond, Target: sim.FlatLink(3, 2)},
				{At: 500 * eventsim.Microsecond, Op: "fail-random-links", Fraction: 0.05},
				{At: 2 * eventsim.Millisecond, Op: "recover", Target: sim.FlatLink(3, 2)},
				{At: 3 * eventsim.Millisecond, Target: sim.Target{Kind: sim.TargetSwitch, ID: 1}},
				{At: 6 * eventsim.Millisecond, Op: "recover", Target: sim.Target{Kind: sim.TargetSwitch, ID: 1}},
			},
			Duration: 4000 * eventsim.Millisecond,
		}))
	}
	// An untagged, unhooked scenario rides along to cover the nil cases.
	scs = append(scs, mustScenario(scenario.Spec{
		Name:     "expander-plain",
		Network:  "expander",
		Seed:     1,
		Sources:  []scenario.SourceSpec{{Type: "shuffle", Participants: 8, FlowBytes: 25_000, Stagger: eventsim.Millisecond}},
		Duration: 4000 * eventsim.Millisecond,
	}))
	return scs
}

// Hooks must not break the runner's core guarantee: the same Scenario —
// workload, fault schedule and all — produces a byte-identical
// Result at any parallelism.
func TestHookDeterminismUnderParallelism(t *testing.T) {
	scs := hookSweep()
	sequential, err := scenario.RunScenarios(context.Background(), scs, 1)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := scenario.RunScenarios(context.Background(), scs, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i := range scs {
		if sequential[i].Err != "" {
			t.Fatalf("scenario %d (%s): %s", i, scs[i].Spec.Name, sequential[i].Err)
		}
		if !sequential[i].Equal(parallel[i]) {
			t.Errorf("scenario %d (%s seed %d): results diverge\n sequential: %+v\n parallel:   %+v",
				i, scs[i].Spec.Name, scs[i].Spec.Seed, sequential[i], parallel[i])
		}
		if !sequential[i].Completed {
			t.Errorf("scenario %d (%s): incomplete (%d/%d flows)",
				i, scs[i].Spec.Name, sequential[i].FlowsDone, sequential[i].FlowsTotal)
		}
	}
}

// Tagged workloads break down into per-tag stats that add up.
func TestTagBreakdown(t *testing.T) {
	res := scenario.Run(hookSweep()[0])
	if res.Err != "" {
		t.Fatal(res.Err)
	}
	east, west := res.ByTag["east"], res.ByTag["west"]
	if east.FlowsTotal != 10*9 || west.FlowsTotal != 4*3 {
		t.Fatalf("tag totals east=%d west=%d, want 90 and 12", east.FlowsTotal, west.FlowsTotal)
	}
	if east.FlowsDone+west.FlowsDone != res.FlowsDone {
		t.Fatalf("tag done %d+%d != total done %d", east.FlowsDone, west.FlowsDone, res.FlowsDone)
	}
	if east.FCT.N != east.FlowsDone || east.FCT.P99Us <= 0 {
		t.Fatalf("east FCT stats implausible: %+v", east.FCT)
	}
	if east.ThroughputGbps <= 0 || west.ThroughputGbps <= 0 {
		t.Fatalf("tag throughputs: east=%g west=%g", east.ThroughputGbps, west.ThroughputGbps)
	}
	if res.ByTag["missing"] != (scenario.TagStats{}) {
		t.Fatal("unknown tag should read as zero")
	}
}

// The untagged scenario keeps ByTag nil so Results stay compact.
func TestUntaggedWorkloadHasNilByTag(t *testing.T) {
	scs := hookSweep()
	res := scenario.Run(scs[len(scs)-1])
	if res.Err != "" {
		t.Fatal(res.Err)
	}
	if res.ByTag != nil {
		t.Fatalf("ByTag = %v, want nil", res.ByTag)
	}
}

// Two scenarios tagging the same shared fixed flow list must not bleed
// tags into each other (FromSpecs copies per run; the shared slice is
// read-only even under parallel execution).
func TestTagOverSharedFixedWorkload(t *testing.T) {
	specs := workload.Shuffle(8, 25_000, eventsim.Millisecond, 1)
	mk := func(tag string) scenario.Scenario {
		return scenario.Scenario{
			Spec: scenario.Spec{Name: tag, Network: "opera", Seed: 1, Duration: 4000 * eventsim.Millisecond},
			Sources: []scenario.Source{func(scenario.Env) workload.Source {
				return workload.TagSource(tag, workload.FromSpecs(specs))
			}},
		}
	}
	results, err := scenario.RunScenarios(context.Background(),
		[]scenario.Scenario{mk("a"), mk("b")}, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i, tag := range []string{"a", "b"} {
		if results[i].Err != "" {
			t.Fatal(results[i].Err)
		}
		if got := results[i].ByTag[tag].FlowsTotal; got != len(specs) {
			t.Errorf("scenario %q: tagged %d/%d flows", tag, got, len(specs))
		}
		if len(results[i].ByTag) != 1 {
			t.Errorf("scenario %q: tags bled across scenarios: %v", tag, results[i].ByTag)
		}
	}
	for _, s := range specs {
		if s.Tag != "" {
			t.Fatalf("shared workload slice mutated: %+v", s)
		}
	}
}

// An unsupported fault target surfaces as Result.Err, not a panic or a
// silent no-op: the expander has no fabric switches, so a switch-failure
// schedule on it reports sim.ErrUnsupportedTarget. (All four
// architectures support injection itself; the folded Clos — once the
// unsupported fabric here — now takes the same schedules as the rest.)
func TestFaultScheduleUnsupportedKind(t *testing.T) {
	res := scenario.Run(scenario.Scenario{Spec: scenario.Spec{
		Name:     "expander-switch-fault",
		Network:  "expander",
		Seed:     1,
		Events:   []scenario.EventSpec{{Target: sim.Target{Kind: sim.TargetSwitch, ID: 0}}},
		Duration: eventsim.Millisecond,
	}})
	if res.Err == "" {
		t.Fatal("expected Err for switch-failure schedule on expander")
	}
	if !strings.Contains(res.Err, sim.ErrUnsupportedTarget.Error()) {
		t.Fatalf("Err should cite the unsupported target: %q", res.Err)
	}

	// The folded Clos now runs flat link schedules like every fabric.
	res = scenario.Run(scenario.Scenario{Spec: scenario.Spec{
		Name:     "clos-faults",
		Network:  "foldedclos",
		Seed:     1,
		Events:   []scenario.EventSpec{{Target: sim.FlatLink(0, 0)}},
		Duration: eventsim.Millisecond,
	}})
	if res.Err != "" {
		t.Fatalf("flat link schedule on foldedclos should run: %v", res.Err)
	}
}

// Fault schedules now run on the static expander too: link failure and
// recovery mid-run, flows complete, and the schedule stays deterministic
// across parallelism.
func TestFaultScheduleOnExpander(t *testing.T) {
	mk := func() []scenario.Scenario {
		return []scenario.Scenario{mustScenario(scenario.Spec{
			Name:    "expander-faults",
			Network: "expander",
			Seed:    1,
			Events: []scenario.EventSpec{
				{At: 300 * eventsim.Microsecond, Target: sim.FlatLink(2, 1)},
				{At: 500 * eventsim.Microsecond, Op: "fail-random-links", Fraction: 0.05},
				{At: 3 * eventsim.Millisecond, Op: "recover", Target: sim.FlatLink(2, 1)},
			},
			Sources:  []scenario.SourceSpec{{Type: "shuffle", Participants: 12, FlowBytes: 25_000, Stagger: eventsim.Millisecond}},
			Duration: 4000 * eventsim.Millisecond,
		})}
	}
	seq, err := scenario.RunScenarios(context.Background(), mk(), 1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := scenario.RunScenarios(context.Background(), mk(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if seq[0].Err != "" {
		t.Fatal(seq[0].Err)
	}
	if !seq[0].Completed || seq[0].FlowsDone != seq[0].FlowsTotal {
		t.Fatalf("faulted expander run incomplete: %d/%d", seq[0].FlowsDone, seq[0].FlowsTotal)
	}
	if !seq[0].Equal(par[0]) {
		t.Fatalf("expander fault schedule not deterministic across parallelism:\n seq: %+v\n par: %+v", seq[0], par[0])
	}
}

// fail-random-links on the expander counts physical cables, not endpoint
// coordinates: each cable appears twice in (rack, slot) space, so naive
// endpoint sampling would fail roughly twice the requested fraction.
func TestFailRandomLinksExpanderCountsCables(t *testing.T) {
	const fraction = 0.25
	cl, res := scenario.Collect(scenario.Scenario{Spec: scenario.Spec{
		Name:     "expander-random",
		Network:  "expander",
		Seed:     1,
		Events:   []scenario.EventSpec{{Op: "fail-random-links", Fraction: fraction}},
		Duration: eventsim.Millisecond,
	}})
	if res.Err != "" {
		t.Fatal(res.Err)
	}
	ef := cl.Faults()
	links := ef.Links()
	want := int(fraction*float64(len(links)) + 0.5)
	var down int
	for _, l := range links {
		if !ef.LinkUp(l.Switch, l.Port) {
			down++
		}
	}
	if down != want {
		t.Fatalf("failed %d/%d cables, want %d (fraction %.2f of cables, not endpoints)",
			down, len(links), want, fraction)
	}
}

// Out-of-range fault targets are rejected at scheduling time, and a
// hand-built Scenario that names no network fails in its Result, which
// still carries the Spec's name and seed.
func TestFaultScheduleValidation(t *testing.T) {
	var specs []scenario.Spec
	for _, ev := range []scenario.EventSpec{
		{Target: sim.FlatLink(99, 0)},
		{Target: sim.FlatLink(0, 99)},
		{Target: sim.ToRTarget(-1)},
		{At: -eventsim.Millisecond, Target: sim.Target{Kind: sim.TargetSwitch, ID: 0}},
		{Op: "fail-random-links", Fraction: -0.1},
		{Op: "fail-random-links", Fraction: 1.5},
	} {
		specs = append(specs, scenario.Spec{Name: "bad", Network: "opera", Seed: 1,
			Events: []scenario.EventSpec{ev}, Duration: eventsim.Millisecond})
	}
	specs = append(specs, scenario.Spec{Name: "x", Network: "nope", Seed: 3})
	// Hand-built with Sources left unresolved: Collect would run no traffic.
	specs = append(specs, scenario.Spec{Name: "unresolved", Network: "opera", Seed: 2, Racks: 4, HostsPerRack: 2,
		Sources:  []scenario.SourceSpec{{Type: "shuffle", FlowBytes: 10_000}},
		Duration: 10 * eventsim.Millisecond})
	for _, sp := range specs {
		res := scenario.Run(scenario.Scenario{Spec: sp})
		if res.Err == "" {
			t.Errorf("spec %+v: expected validation error", sp)
		}
		if res.Name != sp.Name || res.Seed != sp.Seed {
			t.Errorf("spec %+v: Result labelled %q seed %d", sp, res.Name, res.Seed)
		}
	}
}

// Flows route around an injected failure and finish after recovery — the
// §3.6.2 behavior the schedule exists to exercise.
func TestFaultInjectionFlowsComplete(t *testing.T) {
	sc := hookSweep()[0]
	res := scenario.Run(sc)
	if res.Err != "" {
		t.Fatal(res.Err)
	}
	if !res.Completed || res.FlowsDone != res.FlowsTotal {
		t.Fatalf("faulted run incomplete: %d/%d", res.FlowsDone, res.FlowsTotal)
	}
}
