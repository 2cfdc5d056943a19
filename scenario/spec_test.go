package scenario

import (
	"bytes"
	"encoding/gob"
	"reflect"
	"strings"
	"testing"

	opera "github.com/opera-net/opera"
	"github.com/opera-net/opera/internal/eventsim"
	"github.com/opera-net/opera/internal/sim"
	"github.com/opera-net/opera/internal/workload"
)

// TestSpecMatchesHandBuiltScenario: a Spec-resolved scenario must produce
// a Result identical to the equivalent hand-built Scenario — the bridge
// that lets sharded sweeps reproduce local runs.
func TestSpecMatchesHandBuiltScenario(t *testing.T) {
	if testing.Short() {
		t.Skip("packet-level scenario run")
	}
	sp := Spec{
		Name:     "cell",
		Network:  "opera",
		Seed:     3,
		Duration: 8 * eventsim.Millisecond,
		Sources: []SourceSpec{{
			Type: "poisson", Dist: "websearch", Load: 0.05,
			Window: 2 * eventsim.Millisecond, MaxFlowBytes: 1_000_000, Tag: "ws",
		}},
		Retention: RetentionSpec{Sketch: true},
	}
	sc, err := sp.Scenario()
	if err != nil {
		t.Fatal(err)
	}
	got := Run(sc)
	if got.Err != "" {
		t.Fatalf("spec scenario failed: %s", got.Err)
	}

	want := Run(Scenario{
		Name:    "cell",
		Kind:    opera.KindOpera,
		Seed:    3,
		Options: []opera.Option{opera.WithRetention(opera.RetainSketch(opera.SketchOptions{}))},
		Sources: []Source{TagSource("ws",
			Poisson(workload.Websearch(), 0.05, 2*eventsim.Millisecond, 1_000_000))},
		Duration: 8 * eventsim.Millisecond,
	})
	if !got.Equal(want) {
		t.Fatalf("spec-built result differs from hand-built:\ngot  %+v\nwant %+v", got, want)
	}
	if got.Telemetry == nil {
		t.Fatal("sketch retention spec produced no telemetry summary")
	}
}

// TestSpecGobRoundTrip: a Spec must survive the coordinator→worker wire
// (gob) and resolve to the same Scenario on the far side.
func TestSpecGobRoundTrip(t *testing.T) {
	sp := Spec{
		Name: "x", Network: "expander", Seed: 9, Duration: eventsim.Millisecond,
		Racks: 8, HostsPerRack: 3, Uplinks: 5,
		Sources: []SourceSpec{
			{Type: "shuffle", FlowBytes: 50_000, Stagger: 10 * eventsim.Microsecond, Participants: 16},
			{Type: "incast", Fanin: 8, FlowBytes: 2_000, Period: 100 * eventsim.Microsecond, Bursts: 3, Bulk: true, Tag: "in"},
		},
		Retention: RetentionSpec{Sketch: true, Alpha: 0.02},
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(sp); err != nil {
		t.Fatal(err)
	}
	var got Spec
	if err := gob.NewDecoder(&buf).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, sp) {
		t.Fatalf("gob round trip changed the spec:\ngot  %+v\nwant %+v", got, sp)
	}
	if _, err := got.Scenario(); err != nil {
		t.Fatalf("round-tripped spec does not resolve: %v", err)
	}
}

func TestSpecErrors(t *testing.T) {
	base := Spec{
		Name: "e", Network: "opera", Duration: eventsim.Millisecond,
		Sources: []SourceSpec{{Type: "poisson", Dist: "datamining", Load: 0.1, Window: eventsim.Millisecond}},
	}
	for name, mutate := range map[string]func(*Spec){
		"unknown-network":  func(sp *Spec) { sp.Network = "torus" },
		"no-sources":       func(sp *Spec) { sp.Sources = nil },
		"zero-duration":    func(sp *Spec) { sp.Duration = 0 },
		"unknown-type":     func(sp *Spec) { sp.Sources[0].Type = "fractal" },
		"unknown-dist":     func(sp *Spec) { sp.Sources[0].Dist = "uniform" },
		"zero-load":        func(sp *Spec) { sp.Sources[0].Load = 0 },
		"zero-window":      func(sp *Spec) { sp.Sources[0].Window = 0 },
		"bad-alpha":        func(sp *Spec) { sp.Retention = RetentionSpec{Sketch: true, Alpha: 1.5} },
		"shuffle-no-bytes": func(sp *Spec) { sp.Sources[0] = SourceSpec{Type: "shuffle"} },
		"incast-no-fanin":  func(sp *Spec) { sp.Sources[0] = SourceSpec{Type: "incast", FlowBytes: 100, Bursts: 1} },
	} {
		sp := base
		sp.Sources = append([]SourceSpec{}, base.Sources...)
		mutate(&sp)
		if _, err := sp.Scenario(); err == nil {
			t.Errorf("%s: Scenario() succeeded, want error", name)
		}
	}
}

// The zero value of every sizing field keeps opera.New's default, one
// field at a time: a Spec naming only the Clos radix (or only its
// oversubscription) builds, with the other at its default.
func TestSpecClosSizingFieldsDefaultIndependently(t *testing.T) {
	for _, tc := range []struct {
		name         string
		k, f         int
		wantK, wantF int
	}{
		{"radix-only", 12, 0, 12, 3},
		{"oversubscription-only", 0, 1, 8, 1},
		{"neither", 0, 0, 8, 3},
	} {
		sc, err := Spec{Name: tc.name, Network: "foldedclos", ClosK: tc.k, ClosF: tc.f, Duration: eventsim.Millisecond,
			Sources: []SourceSpec{{Type: "shuffle", FlowBytes: 1000}}}.Scenario()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		cl, err := opera.New(sc.Kind, sc.Options...)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if topo := cl.Network().(*sim.ClosNet).Topology(); topo.K != tc.wantK || topo.F != tc.wantF {
			t.Errorf("%s: built k=%d F=%d, want k=%d F=%d", tc.name, topo.K, topo.F, tc.wantK, tc.wantF)
		}
	}
}

// TestSpecEventsGobRoundTrip: a fault schedule rides the same wire as
// the rest of the Spec — every event op and fault kind survives gob and
// resolves back into scheduled Events.
func TestSpecEventsGobRoundTrip(t *testing.T) {
	sp := Spec{
		Name: "faulted", Network: "foldedclos", Seed: 4, Duration: 10 * eventsim.Millisecond,
		ClosK: 8, ClosF: 3,
		Sources: []SourceSpec{{Type: "shuffle", FlowBytes: 25_000, Stagger: 10 * eventsim.Microsecond}},
		Events: []EventSpec{
			{At: 100 * eventsim.Microsecond, Target: TargetSpec{Kind: "link", Switch: 2, Port: 1}},
			{At: 200 * eventsim.Microsecond, Op: "inject",
				Target: TargetSpec{Kind: "link", Tier: 2, Switch: 0, Port: 3},
				Fault:  FaultSpec{Kind: "lossy", Rate: 0.25}},
			{At: 300 * eventsim.Microsecond, Op: "inject",
				Target: TargetSpec{Kind: "link", Switch: 5, Port: 0},
				Fault:  FaultSpec{Kind: "degraded", RateFraction: 0.5}},
			{At: 400 * eventsim.Microsecond, Op: "inject",
				Target: TargetSpec{Kind: "link", Switch: 7, Port: 2},
				Fault:  FaultSpec{Kind: "flapping", Up: eventsim.Millisecond, Down: eventsim.Millisecond}},
			{At: 500 * eventsim.Microsecond, Op: "inject",
				Target: TargetSpec{Kind: "switch", Tier: 2, ID: 1}},
			{At: 600 * eventsim.Microsecond, Op: "inject", Target: TargetSpec{Kind: "tor", ID: 9}},
			{At: 700 * eventsim.Microsecond, Op: "fail-random-links", Fraction: 0.05},
			{At: 2 * eventsim.Millisecond, Op: "recover", Target: TargetSpec{Kind: "link", Switch: 2, Port: 1}},
		},
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(sp); err != nil {
		t.Fatal(err)
	}
	var got Spec
	if err := gob.NewDecoder(&buf).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, sp) {
		t.Fatalf("gob round trip changed the spec:\ngot  %+v\nwant %+v", got, sp)
	}
	sc, err := got.Scenario()
	if err != nil {
		t.Fatalf("round-tripped spec does not resolve: %v", err)
	}
	if len(sc.Events) != len(sp.Events) {
		t.Fatalf("resolved %d events, want %d", len(sc.Events), len(sp.Events))
	}
	for i, ev := range sc.Events {
		if ev.At != sp.Events[i].At {
			t.Fatalf("event %d fires at %v, want %v", i, ev.At, sp.Events[i].At)
		}
	}
}

// Bad event specs are rejected at Spec.Scenario() with the event index
// in the message — before any worker spends simulation time on them.
func TestSpecEventErrors(t *testing.T) {
	base := Spec{
		Name: "ev", Network: "opera", Duration: eventsim.Millisecond,
		Sources: []SourceSpec{{Type: "shuffle", FlowBytes: 1000}},
	}
	for name, ev := range map[string]EventSpec{
		"unknown-op":      {Op: "melt"},
		"unknown-target":  {Target: TargetSpec{Kind: "cable"}},
		"unknown-fault":   {Target: TargetSpec{Kind: "link"}, Fault: FaultSpec{Kind: "cosmic"}},
		"bad-lossy-rate":  {Target: TargetSpec{Kind: "link"}, Fault: FaultSpec{Kind: "lossy", Rate: 2}},
		"bad-degraded":    {Target: TargetSpec{Kind: "link"}, Fault: FaultSpec{Kind: "degraded", RateFraction: 1}},
		"bad-flap":        {Target: TargetSpec{Kind: "link"}, Fault: FaultSpec{Kind: "flapping", Up: -1}},
		"recover-no-kind": {Op: "recover", Target: TargetSpec{Kind: "socket"}},
		"bad-fraction":    {Op: "fail-random-links", Fraction: 1.5},
	} {
		sp := base
		sp.Events = []EventSpec{ev}
		_, err := sp.Scenario()
		if err == nil {
			t.Errorf("%s: Scenario() succeeded, want error", name)
			continue
		}
		if !strings.Contains(err.Error(), "event 0") {
			t.Errorf("%s: error %v does not locate the event", name, err)
		}
	}
}

// TestSpecErrorsNameTheProblem spot-checks that diagnostics carry enough
// context to find the bad cell in a thousand-spec grid.
func TestSpecErrorsNameTheProblem(t *testing.T) {
	sp := Spec{Name: "grid-cell-7", Network: "opera", Duration: eventsim.Millisecond,
		Sources: []SourceSpec{{Type: "poisson", Dist: "zipf", Load: 0.1, Window: eventsim.Millisecond}}}
	_, err := sp.Scenario()
	if err == nil || !strings.Contains(err.Error(), "grid-cell-7") || !strings.Contains(err.Error(), "zipf") {
		t.Fatalf("error %v does not name the spec and the bad distribution", err)
	}
}
