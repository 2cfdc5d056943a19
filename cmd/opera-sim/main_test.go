package main

import (
	"flag"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/opera-net/opera/internal/eventsim"
	"github.com/opera-net/opera/internal/sim"
	"github.com/opera-net/opera/scenario"
)

func parse(args ...string) (run, error) {
	fs := flag.NewFlagSet("opera-sim", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	return parseArgs(fs, args)
}

// TestArgsToSpec pins the flag → scenario.Spec mapping: every row is the
// default description with the named differences.
func TestArgsToSpec(t *testing.T) {
	const ms = eventsim.Millisecond
	trace := filepath.Join(t.TempDir(), "flows.txt")
	if err := os.WriteFile(trace, []byte("0 0 5 1000\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	// The description of a bare `opera-sim`.
	base := func() scenario.Spec {
		return scenario.Spec{
			Name: "opera", Network: "opera", Seed: 1, Duration: 50 * 20 * ms,
			Racks: 16, HostsPerRack: 4, Uplinks: 4, ClosK: 8, ClosF: 3,
			Sources: []scenario.SourceSpec{{
				Type: "poisson", Dist: "datamining", Load: 0.10, Window: 20 * ms,
				MaxFlowBytes: 50_000_000, FlowBytes: 100_000,
			}},
		}
	}
	pattern := func(name string) func(*scenario.Spec) {
		return func(sp *scenario.Spec) {
			sp.AppTaggedBulk = true
			sp.Sources[0].Type, sp.Sources[0].Dist = name, ""
		}
	}
	for _, tc := range []struct {
		args     string
		workload string // the printed label
		want     func(*scenario.Spec)
	}{
		{"", "datamining", func(*scenario.Spec) {}},
		{"-workload websearch -load 0.25", "websearch", func(sp *scenario.Spec) {
			sp.Sources[0].Dist, sp.Sources[0].Load = "websearch", 0.25
		}},
		{"-workload hadoop -maxflow 0", "hadoop", func(sp *scenario.Spec) {
			sp.Sources[0].Dist, sp.Sources[0].MaxFlowBytes = "hadoop", 0
		}},
		{"-workload mix", "mix", func(sp *scenario.Spec) {
			sp.Sources[0].Type, sp.Sources[0].Dist = "mix", ""
		}},
		{"-workload incast -duration 5ms -flowbytes 20000", "incast", func(sp *scenario.Spec) {
			sp.Duration = 50 * 5 * ms
			src := &sp.Sources[0]
			src.Type, src.Dist, src.Window, src.FlowBytes = "incast", "", 5*ms, 20_000
			src.Fanin, src.Period, src.Bursts = 8, 5*ms/10, 10
		}},
		{"-workload shuffle", "shuffle", pattern("shuffle")},
		{"-workload permutation", "permutation", pattern("permutation")},
		{"-workload hotrack", "hotrack", pattern("hotrack")},
		// -trace overrides -workload, including its cluster-wide bulk tagging.
		{"-workload shuffle -trace " + trace, "trace:" + trace, func(sp *scenario.Spec) {
			sp.Sources[0].Type, sp.Sources[0].Dist, sp.Sources[0].Path = "replay", "", trace
		}},
		{"-workload mix -arrivals 5000 -tag blend", "mix", func(sp *scenario.Spec) {
			src := &sp.Sources[0]
			src.Type, src.Dist, src.MaxFlows, src.Tag = "mix", "", 5000, "blend"
		}},
		{"-retention sketch -sketch-alpha 0.02", "datamining", func(sp *scenario.Spec) {
			sp.Retention = scenario.RetentionSpec{Sketch: true, Alpha: 0.02}
		}},
		{"-sketch-alpha 0.02", "datamining", func(*scenario.Spec) {}}, // no effect without -retention sketch
		{"-fail-at 500us:link:3:2,2ms:recover-link:3:2", "datamining", func(sp *scenario.Spec) {
			sp.Events = []scenario.EventSpec{
				{At: 500 * eventsim.Microsecond, Op: "inject", Target: sim.Target{Kind: "link", Switch: 3, Port: 2}, Fault: sim.Fault{Kind: "down"}},
				{At: 2 * ms, Op: "recover", Target: sim.Target{Kind: "link", Switch: 3, Port: 2}},
			}
		}},
		{"-duration 4ms -drain 400", "datamining", func(sp *scenario.Spec) {
			sp.Duration, sp.Sources[0].Window = 400*4*ms, 4*ms
		}},
		{"-network foldedclos -racks 8 -hosts-per-rack 6 -uplinks 5 -clos-k 12 -clos-f 1 -seed 7", "datamining", func(sp *scenario.Spec) {
			sp.Name, sp.Network, sp.Seed = "foldedclos", "foldedclos", 7
			sp.Racks, sp.HostsPerRack, sp.Uplinks, sp.ClosK, sp.ClosF = 8, 6, 5, 12, 1
		}},
	} {
		r, err := parse(strings.Fields(tc.args)...)
		if err != nil {
			t.Errorf("%q: %v", tc.args, err)
			continue
		}
		want := base()
		tc.want(&want)
		if !reflect.DeepEqual(r.spec, want) {
			t.Errorf("%q:\ngot  %+v\nwant %+v", tc.args, r.spec, want)
		}
		if r.workload != tc.workload {
			t.Errorf("%q: label %q, want %q", tc.args, r.workload, tc.workload)
		}
		if len(r.scenario.Sources) != 1 {
			t.Errorf("%q: resolved %d sources, want 1", tc.args, len(r.scenario.Sources))
		}
	}
}

// Malformed command lines fail in parseArgs — flag syntax, flag values, or
// a Spec that does not resolve — before anything runs.
func TestMalformedArgs(t *testing.T) {
	for _, args := range []string{
		"-workload foo",
		"-retention most",
		"-fail-at 1ms:melt",
		"-fail-at 1ms:lossy:3:2:1.5",
		"-duration soon",
		"-no-such-flag",
		"-network torus",
		"-load -1",
		"-load 1e300",
		"-duration 0s",
		"-drain -1",
		"-arrivals -5",
		"-trace /nonexistent/flows.txt",
		"-retention sketch -sketch-alpha 2",
	} {
		if _, err := parse(strings.Fields(args)...); err == nil {
			t.Errorf("%q: accepted, want an error", args)
		}
	}
}

// The status and -event-kinds flags are process-local: they ride beside the
// Spec.
func TestStatusFlagsStayOutOfTheSpec(t *testing.T) {
	plain, err := parse()
	if err != nil {
		t.Fatal(err)
	}
	r, err := parse("-status", ":0", "-status-every", "2ms", "-status-linger", "1s", "-event-kinds")
	if err != nil {
		t.Fatal(err)
	}
	if r.statusAddr != ":0" || r.statusEvery.Milliseconds() != 2 || r.statusLinger.Seconds() != 1 || !r.eventKinds {
		t.Errorf("status settings = %q %v %v, event kinds %v", r.statusAddr, r.statusEvery, r.statusLinger, r.eventKinds)
	}
	if !reflect.DeepEqual(r.spec, plain.spec) {
		t.Errorf("-status changed the run description:\ngot  %+v\nwant %+v", r.spec, plain.spec)
	}
}
