package scenario

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	opera "github.com/opera-net/opera"
	"github.com/opera-net/opera/internal/eventsim"
	"github.com/opera-net/opera/internal/sim"
	"github.com/opera-net/opera/internal/workload"
)

// oldRackSaturate is Figure 10's underlay as internal/experiments wrote it
// before the "saturate" source type existed — the generator the new
// spelling is pinned to.
func oldRackSaturate(window eventsim.Time) Source {
	return func(env Env) workload.Source {
		perRack := env.NumHosts / env.HostsPerRack
		bulkBytes := int64(float64(window.Seconds()) * 10e9 / 8 / float64(perRack-1))
		var bulk []workload.FlowSpec
		for h := 0; h < env.NumHosts; h++ {
			for r := 0; r < perRack; r++ {
				if r == h/env.HostsPerRack {
					continue
				}
				bulk = append(bulk, workload.FlowSpec{
					Src: h, Dst: r*env.HostsPerRack + h%env.HostsPerRack, Bytes: bulkBytes,
				})
			}
		}
		return workload.FromSpecs(bulk)
	}
}

const testTrace = `# arrival_ns src dst bytes [tag] [bulk]
0 0 5 20000 a
1000 1 9 400000 b bulk
2000 2 17 30000 a
50000 3 40 1000 a
90000 63 0 200000 b bulk
`

// writeTrace drops a trace file into the test's temp dir.
func writeTrace(t *testing.T, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "trace.txt")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestSpecMatchesHandBuiltScenario: a Spec-resolved scenario must produce
// a Result identical to the equivalent hand-built Scenario — the bridge
// that lets sharded sweeps reproduce local runs. One row per source type,
// each pinned to a hand-written func(Env) workload.Source that calls the
// internal/workload generator directly.
func TestSpecMatchesHandBuiltScenario(t *testing.T) {
	if testing.Short() {
		t.Skip("packet-level scenario run")
	}
	const window = 2 * eventsim.Millisecond
	arrivals := func(env Env, load float64) workload.PoissonConfig {
		return workload.PoissonConfig{NumHosts: env.NumHosts, Load: load,
			Duration: window, Seed: env.Seed}
	}
	// poisson is a one-component Mix: dist's sizes capped at maxBytes.
	poisson := func(env Env, dist *workload.FlowSizeDist, load float64, maxBytes int64) workload.Source {
		return workload.Mix(arrivals(env, load), workload.MixComponent{Dist: dist, Weight: 1, MaxFlowBytes: maxBytes})
	}
	pattern := func(gen func(env Env) []workload.FlowSpec) Source {
		return func(env Env) workload.Source { return workload.FromSpecs(gen(env)) }
	}
	for _, tc := range []struct {
		name    string
		mutate  func(*Spec)
		sources []SourceSpec
		hand    []Source
	}{
		{
			name: "poisson-websearch-sketch",
			mutate: func(sp *Spec) {
				sp.Retention = RetentionSpec{Sketch: true}
			},
			sources: []SourceSpec{{Type: "poisson", Dist: "websearch", Load: 0.05, Window: window, MaxFlowBytes: 1_000_000, Tag: "ws"}},
			hand: []Source{func(env Env) workload.Source {
				return workload.TagSource("ws", poisson(env, workload.Websearch(), 0.05, 1_000_000))
			}},
		},
		{
			name:    "poisson-hadoop",
			sources: []SourceSpec{{Type: "poisson", Dist: "hadoop", Load: 0.5, Window: window, MaxFlowBytes: 500_000}},
			hand: []Source{func(env Env) workload.Source {
				return poisson(env, workload.Hadoop(), 0.5, 500_000)
			}},
		},
		{
			name:    "mix",
			sources: []SourceSpec{{Type: "mix", Load: 0.1, Window: window, MaxFlowBytes: 500_000}},
			hand: []Source{func(env Env) workload.Source {
				return workload.Mix(arrivals(env, 0.1),
					workload.MixComponent{Dist: workload.Websearch(), Weight: 0.5, Tag: "websearch", MaxFlowBytes: 500_000},
					workload.MixComponent{Dist: workload.Datamining(), Weight: 0.5, Tag: "datamining", Bulk: true, MaxFlowBytes: 500_000})
			}},
		},
		{
			name:    "max-flows",
			sources: []SourceSpec{{Type: "poisson", Dist: "websearch", Load: 0.2, Window: window, MaxFlowBytes: 100_000, MaxFlows: 20}},
			hand: []Source{func(env Env) workload.Source {
				return workload.Take(poisson(env, workload.Websearch(), 0.2, 100_000), 20)
			}},
		},
		{
			// Take, then Bulk, then Tag: the order the Spec wraps in.
			name: "poisson-max-flows-bulk-tag",
			sources: []SourceSpec{{Type: "poisson", Dist: "websearch", Load: 0.2, Window: window, MaxFlowBytes: 100_000,
				MaxFlows: 20, Bulk: true, Tag: "ws"}},
			hand: []Source{func(env Env) workload.Source {
				capped := poisson(env, workload.Websearch(), 0.2, 100_000)
				return workload.TagSource("ws", workload.BulkSource(workload.Take(capped, 20)))
			}},
		},
		{
			name:    "shuffle-participants-stagger",
			sources: []SourceSpec{{Type: "shuffle", FlowBytes: 20_000, Stagger: 500 * eventsim.Microsecond, Participants: 12}},
			hand: []Source{pattern(func(env Env) []workload.FlowSpec {
				return workload.Shuffle(12, 20_000, 500*eventsim.Microsecond, env.Seed)
			})},
		},
		{
			name: "incast-bulk-tag",
			sources: []SourceSpec{{Type: "incast", Fanin: 8, FlowBytes: 20_000, Period: 500 * eventsim.Microsecond, Bursts: 3,
				Bulk: true, Tag: "in"}},
			hand: []Source{func(env Env) workload.Source {
				return workload.TagSource("in", workload.BulkSource(workload.Incast(workload.IncastConfig{NumHosts: env.NumHosts,
					Fanin: 8, Bytes: 20_000, Period: 500 * eventsim.Microsecond, Bursts: 3, Seed: env.Seed})))
			}},
		},
		{
			name:    "permutation",
			mutate:  func(sp *Spec) { sp.AppTaggedBulk = true },
			sources: []SourceSpec{{Type: "permutation", FlowBytes: 200_000}},
			hand: []Source{pattern(func(env Env) []workload.FlowSpec {
				return workload.Permutation(env.NumHosts, env.HostsPerRack, 200_000, env.Seed)
			})},
		},
		{
			name:    "hotrack",
			mutate:  func(sp *Spec) { sp.AppTaggedBulk = true },
			sources: []SourceSpec{{Type: "hotrack", FlowBytes: 200_000}},
			hand:    []Source{pattern(func(env Env) []workload.FlowSpec { return workload.HotRack(env.HostsPerRack, 200_000) })},
		},
		{
			name:    "replay",
			sources: []SourceSpec{{Type: "replay", Path: writeTrace(t, testTrace)}},
			hand:    []Source{func(Env) workload.Source { return workload.Replay(strings.NewReader(testTrace)) }},
		},
		{
			// The fig10 cell: a bulk-tagged saturating underlay plus websearch.
			name: "fig10-saturate-plus-websearch",
			sources: []SourceSpec{
				{Type: "saturate", Window: window, Bulk: true, Tag: "shuffle"},
				{Type: "poisson", Dist: "websearch", Load: 0.05, Window: window, Tag: "websearch"},
			},
			hand: []Source{
				func(env Env) workload.Source {
					return workload.TagSource("shuffle", workload.BulkSource(oldRackSaturate(window)(env)))
				},
				func(env Env) workload.Source {
					return workload.TagSource("websearch", poisson(env, workload.Websearch(), 0.05, 0))
				},
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sp := Spec{Name: "cell", Network: "opera", Seed: 3, Duration: 4 * window, Sources: tc.sources}
			if tc.mutate != nil {
				tc.mutate(&sp)
			}
			sc, err := sp.Scenario()
			if err != nil {
				t.Fatal(err)
			}
			got := Run(sc)
			if got.Err != "" {
				t.Fatalf("spec scenario failed: %s", got.Err)
			}
			if got.FlowsTotal == 0 {
				t.Fatal("spec scenario ran no flows")
			}
			// Collect runs Sources, not Spec.Sources: the hand-written
			// generators replace the resolved ones.
			want := Run(Scenario{Spec: sp, Sources: tc.hand})
			if !got.Equal(want) {
				t.Fatalf("spec-built result differs from hand-built:\ngot  %+v\nwant %+v", got, want)
			}
			if sp.Retention.Sketch && got.ErrorBound == 0 {
				t.Fatal("sketch retention spec produced exact percentiles")
			}
			// One resolved Scenario runs twice (a replay source reopens its file).
			if again := Run(sc); !again.Equal(got) {
				t.Fatalf("second run of the resolved Scenario differs:\nfirst  %+v\nsecond %+v", got, again)
			}
		})
	}
}

// A source that ends in error fails the run: a malformed trace line or a
// host outside the cluster yields a named Result.Err, not a truncated
// workload in a Completed result.
func TestSourceErrorFailsTheRun(t *testing.T) {
	for name, tc := range map[string]struct{ trace, want string }{
		"bad-line":  {"0 0 5 1000\nbogus line\n", "trace line 2"},
		"bad-host":  {"0 0 5 1000\n10 1 9999 500\n", "outside cluster with 64 hosts"},
		"unordered": {"10 0 5 1000\n5 1 6 500\n", "before previous"},
	} {
		path := writeTrace(t, tc.trace)
		// Tag and MaxFlows wrap the stream; the error must still surface.
		sc, err := Spec{Name: name, Network: "opera", Duration: eventsim.Millisecond,
			Sources: []SourceSpec{{Type: "replay", Path: path, Tag: "t", MaxFlows: 100}}}.Scenario()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		cl, res := Collect(sc)
		if !strings.Contains(res.Err, tc.want) {
			t.Errorf("%s: Result.Err = %q, want it to contain %q", name, res.Err, tc.want)
		}
		if cl != nil || res.Completed || res.FlowsTotal != 0 {
			t.Errorf("%s: failed run still reports measurements: %+v", name, res)
		}
		// The trace vanishing between resolution and the run is a run error too.
		os.Remove(path)
		if _, res := Collect(sc); !strings.Contains(res.Err, "no such file") {
			t.Errorf("%s: missing trace at run time: Result.Err = %q", name, res.Err)
		}
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
			{Type: "poisson", Dist: "hadoop", Load: 0.3, Window: eventsim.Millisecond, MaxFlowBytes: 1 << 20, MaxFlows: 500},
			{Type: "mix", Load: 0.2, Window: eventsim.Millisecond},
			{Type: "permutation", FlowBytes: 1000},
			{Type: "hotrack", FlowBytes: 1000},
			{Type: "saturate", Window: eventsim.Millisecond, Bulk: true, Tag: "under"},
			{Type: "replay", Path: writeTrace(t, testTrace), MaxFlows: 3},
		},
		Events:    []EventSpec{{At: eventsim.Microsecond, Target: sim.Target{Kind: "link", Switch: 2, Port: 1}}},
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

	// The same spec as a JSON file (opera-sweep -grid carries EventSpecs).
	data, err := json.Marshal(sp)
	if err != nil {
		t.Fatal(err)
	}
	var fromJSON Spec
	if err := json.Unmarshal(data, &fromJSON); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fromJSON, sp) {
		t.Fatalf("JSON round trip changed the spec:\ngot  %+v\nwant %+v", fromJSON, sp)
	}
}

// retiredKeysSpec is a spec file as JSON-encoded Specs were written while
// the sketch window geometry was a RetentionSpec field; FuzzSpecJSON's
// corpus carries it too.
const retiredKeysSpec = `{"Name":"retired","Network":"opera","Seed":1,"Duration":5000000,` +
	`"Sources":[{"Type":"shuffle","FlowBytes":20000,"Participants":8}],` +
	`"Retention":{"Sketch":true,"Alpha":0,"WindowBin":0.001,"WindowBins":128}}`

// Old grid and spec files keep working: the retired "WindowBin" and
// "WindowBins" keys decode to nothing, and the spec runs to the Result of
// the same spec without them.
func TestRetiredWindowKeysDecode(t *testing.T) {
	var old Spec
	if err := json.Unmarshal([]byte(retiredKeysSpec), &old); err != nil {
		t.Fatal(err)
	}
	want := Spec{Name: "retired", Network: "opera", Seed: 1, Duration: 5 * eventsim.Millisecond,
		Sources:   []SourceSpec{{Type: "shuffle", FlowBytes: 20_000, Participants: 8}},
		Retention: RetentionSpec{Sketch: true}}
	if !reflect.DeepEqual(old, want) {
		t.Fatalf("decoded %+v, want %+v", old, want)
	}
	run := func(sp Spec) Result {
		sc, err := sp.Scenario()
		if err != nil {
			t.Fatal(err)
		}
		return Run(sc)
	}
	got, direct := run(old), run(want)
	if got.Err != "" || got.ErrorBound == 0 || got.FlowsDone == 0 {
		t.Fatalf("retired-keys spec ran to %+v", got)
	}
	if !got.Equal(direct) {
		t.Fatalf("retired-keys spec ran differently:\ngot  %+v\nwant %+v", got, direct)
	}
}

// specErrorBase resolves; every specErrorRows mutation of it must not.
// FuzzSpecJSON seeds from both.
func specErrorBase() Spec {
	return Spec{
		Name: "e", Network: "opera", Duration: eventsim.Millisecond,
		Sources: []SourceSpec{{Type: "poisson", Dist: "datamining", Load: 0.1, Window: eventsim.Millisecond}},
	}
}

var specErrorRows = map[string]func(*Spec){
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
	// Hostile input: at the parent commit the load rows resolved and
	// then never returned from the run, the period rows "completed"
	// with no flows, the negative rows were taken as unset.
	"huge-load":          func(sp *Spec) { sp.Sources[0].Load = 1e300 },
	"inf-load":           func(sp *Spec) { sp.Sources[0].Load = math.Inf(1) },
	"nan-load":           func(sp *Spec) { sp.Sources[0].Load = math.NaN() },
	"load-above-ceiling": func(sp *Spec) { sp.Sources[0].Load = MaxLoad + 1 },
	"mix-huge-load":      func(sp *Spec) { sp.Sources[0] = SourceSpec{Type: "mix", Load: 1e300, Window: eventsim.Millisecond} },
	"incast-zero-period": func(sp *Spec) { sp.Sources[0] = SourceSpec{Type: "incast", Fanin: 4, FlowBytes: 100, Bursts: 1} },
	"incast-neg-period": func(sp *Spec) {
		sp.Sources[0] = SourceSpec{Type: "incast", Fanin: 4, FlowBytes: 100, Bursts: 1, Period: -5}
	},
	"neg-stagger":            func(sp *Spec) { sp.Sources[0] = SourceSpec{Type: "shuffle", FlowBytes: 100, Stagger: -1} },
	"neg-max-flow-bytes":     func(sp *Spec) { sp.Sources[0].MaxFlowBytes = -1 },
	"neg-participants":       func(sp *Spec) { sp.Sources[0] = SourceSpec{Type: "shuffle", FlowBytes: 100, Participants: -4} },
	"neg-max-flows":          func(sp *Spec) { sp.Sources[0].MaxFlows = -1 },
	"neg-max-slice-diam":     func(sp *Spec) { sp.MaxSliceDiameter = -1 },
	"saturate-no-window":     func(sp *Spec) { sp.Sources[0] = SourceSpec{Type: "saturate"} },
	"permutation-no-bytes":   func(sp *Spec) { sp.Sources[0] = SourceSpec{Type: "permutation"} },
	"replay-no-path":         func(sp *Spec) { sp.Sources[0] = SourceSpec{Type: "replay"} },
	"replay-missing-file":    func(sp *Spec) { sp.Sources[0] = SourceSpec{Type: "replay", Path: "/nonexistent/trace.txt"} },
	"mix-no-load":            func(sp *Spec) { sp.Sources[0] = SourceSpec{Type: "mix", Window: eventsim.Millisecond} },
	"neg-field-of-no-reader": func(sp *Spec) { sp.Sources[0].Fanin = -1 },
}

func TestSpecErrors(t *testing.T) {
	if _, err := specErrorBase().Scenario(); err != nil {
		t.Fatalf("base spec does not resolve: %v", err)
	}
	for name, mutate := range specErrorRows {
		sp := specErrorBase()
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
		cl, err := opera.New(opera.KindFoldedClos, sc.Spec.options()...)
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
			{At: 100 * eventsim.Microsecond, Target: sim.Target{Kind: "link", Switch: 2, Port: 1}},
			{At: 200 * eventsim.Microsecond, Op: "inject",
				Target: sim.Target{Kind: "link", Tier: 2, Switch: 0, Port: 3},
				Fault:  sim.Fault{Kind: "lossy", Rate: 0.25}},
			{At: 300 * eventsim.Microsecond, Op: "inject",
				Target: sim.Target{Kind: "link", Switch: 5, Port: 0},
				Fault:  sim.Fault{Kind: "degraded", RateFraction: 0.5}},
			{At: 400 * eventsim.Microsecond, Op: "inject",
				Target: sim.Target{Kind: "link", Switch: 7, Port: 2},
				Fault:  sim.Fault{Kind: "flapping", Up: eventsim.Millisecond, Down: eventsim.Millisecond}},
			{At: 500 * eventsim.Microsecond, Op: "inject",
				Target: sim.Target{Kind: "switch", Tier: 2, ID: 1}},
			{At: 600 * eventsim.Microsecond, Op: "inject", Target: sim.Target{Kind: "tor", ID: 9}},
			{At: 700 * eventsim.Microsecond, Op: "fail-random-links", Fraction: 0.05},
			{At: 2 * eventsim.Millisecond, Op: "recover", Target: sim.Target{Kind: "link", Switch: 2, Port: 1}},
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
	if len(sc.Spec.Events) != len(sp.Events) {
		t.Fatalf("resolved %d events, want %d", len(sc.Spec.Events), len(sp.Events))
	}
	for i, ev := range sc.Spec.Events {
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
		"unknown-target":  {Target: sim.Target{Kind: "cable"}},
		"unknown-fault":   {Target: sim.Target{Kind: "link"}, Fault: sim.Fault{Kind: "cosmic"}},
		"bad-lossy-rate":  {Target: sim.Target{Kind: "link"}, Fault: sim.Fault{Kind: "lossy", Rate: 2}},
		"bad-degraded":    {Target: sim.Target{Kind: "link"}, Fault: sim.Fault{Kind: "degraded", RateFraction: 1}},
		"bad-flap":        {Target: sim.Target{Kind: "link"}, Fault: sim.Fault{Kind: "flapping", Up: -1}},
		"recover-no-kind": {Op: "recover", Target: sim.Target{Kind: "socket"}},
		"bad-fraction":    {Op: "fail-random-links", Fraction: 1.5},
		"negative-time":   {At: -eventsim.Millisecond, Target: sim.FlatLink(0, 0)},
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
	// Unknown names list the table they were looked up in.
	if !strings.Contains(err.Error(), "datamining, hadoop, websearch") {
		t.Errorf("error %v does not list the known distributions", err)
	}
	// Range errors name the offending field.
	ok := SourceSpec{Type: "poisson", Dist: "websearch", Load: 0.1, Window: eventsim.Millisecond}
	for field, mutate := range map[string]func(*Spec){
		"Load":             func(sp *Spec) { sp.Sources[0].Load = math.Inf(1) },
		"Period":           func(sp *Spec) { sp.Sources[0] = SourceSpec{Type: "incast", Fanin: 4, FlowBytes: 100, Bursts: 1} },
		"Stagger":          func(sp *Spec) { sp.Sources[0].Stagger = -1 },
		"MaxFlowBytes":     func(sp *Spec) { sp.Sources[0].MaxFlowBytes = -1 },
		"Participants":     func(sp *Spec) { sp.Sources[0].Participants = -1 },
		"MaxSliceDiameter": func(sp *Spec) { sp.MaxSliceDiameter = -1 },
		"Path":             func(sp *Spec) { sp.Sources[0] = SourceSpec{Type: "replay"} },
		"fractal":          func(sp *Spec) { sp.Sources[0].Type = "fractal" },
		"hotrack, incast":  func(sp *Spec) { sp.Sources[0].Type = "fractal" },
	} {
		sp := Spec{Name: "grid-cell-7", Network: "opera", Duration: eventsim.Millisecond, Sources: []SourceSpec{ok}}
		mutate(&sp)
		if _, err := sp.Scenario(); err == nil || !strings.Contains(err.Error(), field) {
			t.Errorf("error %v does not name %s", err, field)
		}
	}
}
