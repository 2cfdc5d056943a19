package scenario_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	opera "github.com/opera-net/opera"
	"github.com/opera-net/opera/internal/eventsim"
	"github.com/opera-net/opera/internal/sim"
	"github.com/opera-net/opera/scenario"
)

var update = flag.Bool("update", false, "rewrite testdata golden files from this tree's results")

// TestFabricGolden pins every fabric's whole Result, under traffic that
// exercises both transports and a fault schedule covering every fault
// kind, against scenario/testdata/fabric_golden.txt. It is the fast
// byte-identity wall for fabric refactors: RotorNet is in no bench
// workload, and the only other check on it is the minutes-long figdiff.
// A sha256= that moves means forwarding, the slice clock or the fault
// mechanism changed behaviour; an events= that moves alone means the same
// simulation took a different number of events. Regenerate (go test
// ./scenario -run TestFabricGolden -update) only when that is the point of
// the change.
func TestFabricGolden(t *testing.T) {
	var got strings.Builder
	for _, sp := range goldenSpecs(t) {
		line(t, &got, sp)
	}

	golden := filepath.Join("testdata", "fabric_golden.txt")
	if *update {
		if err := os.WriteFile(golden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden (regenerate with -update): %v", err)
	}
	if got.String() != string(want) {
		t.Fatalf("fabric results drifted from %s\n--- got ---\n%s--- want ---\n%s", golden, &got, want)
	}
}

// goldenFabrics lists the five fabrics with hi, the highest uplink
// coordinate each one's fault map accepts at the default 16×4 (Clos k=8)
// sizing; rotor marks the fabrics that run RotorLB, where an app-tagged
// shuffle is cheap.
var goldenFabrics = []struct {
	network string
	hi      int
	rotor   bool
}{
	{"opera", 3, true},
	{"rotornet", 3, true},
	{"rotornet-hybrid", 2, true},
	{"expander", 3, false},
	{"foldedclos", 1, false},
}

// goldenSpecs is TestFabricGolden's 16 specs, in golden-file order.
func goldenSpecs(t *testing.T) []scenario.Spec {
	var specs []scenario.Spec
	for _, fab := range goldenFabrics {
		for _, seed := range []int64{1, 2} {
			if fab.rotor {
				specs = append(specs, scenario.Spec{
					Name: fab.network + "/shuffle", Network: fab.network, Seed: seed,
					AppTaggedBulk: true,
					Sources:       []scenario.SourceSpec{{Type: "shuffle", FlowBytes: 30_000, Participants: 32}},
					Duration:      20 * eventsim.Millisecond,
				})
			}
			events, err := scenario.ParseEvents(fmt.Sprintf(
				"250us:link:3:%[1]d,300us:lossy:4:0:0.05,450us:tor:5,500us:flap:9:1:300us:200us,"+
					"1500us:recover-link:3:%[1]d,2ms:recover-tor:5,3ms:recover-link:9:1", fab.hi))
			if err != nil {
				t.Fatal(err)
			}
			specs = append(specs, scenario.Spec{
				Name: fab.network + "/mixed", Network: fab.network, Seed: seed,
				Sources: []scenario.SourceSpec{
					{Type: "poisson", Dist: "websearch", Load: 0.25, Window: 3 * eventsim.Millisecond, MaxFlowBytes: 400_000},
					{Type: "shuffle", FlowBytes: 80_000, Participants: 24, Bulk: true, Tag: "bulk"},
				},
				Events:   events,
				Duration: 10 * eventsim.Millisecond,
			})
		}
	}
	return specs
}

// line runs one spec and appends its golden line: a few readable fields
// to say what moved, then the hash of the whole Result. It runs the spec
// again on the heap scheduler, the wheel's oracle, and requires the same
// line: the system-level scheduler differential.
func line(t *testing.T, out *strings.Builder, sp scenario.Spec) {
	t.Helper()
	sc, err := sp.Scenario()
	if err != nil {
		t.Fatal(err)
	}
	wheel := resultLine(t, sc)
	sc.Options = append(sc.Options, opera.WithScheduler(eventsim.NewHeapScheduler()))
	if heap := resultLine(t, sc); heap != wheel {
		t.Fatalf("the heap scheduler runs a different simulation:\nwheel %sheap  %s", wheel, heap)
	}
	out.WriteString(wheel)
}

func resultLine(t *testing.T, sc scenario.Scenario) string {
	t.Helper()
	cl, res := scenario.Collect(sc)
	if res.Err != "" {
		t.Fatalf("%s seed %d: %s", sc.Name, sc.Seed, res.Err)
	}
	// The hash covers behaviour only: SimEvents is effort, printed beside
	// it, so an exact event cut moves events= and nothing else.
	events := res.SimEvents
	res.SimEvents = 0
	blob, err := json.Marshal(res)
	if err != nil {
		t.Fatalf("%s seed %d: %v", sc.Name, sc.Seed, err)
	}
	return fmt.Sprintf("%s seed=%d done=%d/%d events=%d nacks=%d lost=%d sha256=%x\n",
		sc.Name, sc.Seed, res.FlowsDone, res.FlowsTotal, events, res.BulkNACKs, cl.Faults().Lost, sha256.Sum256(blob))
}

// TestFaultBeforeTrafficLeavesNoTrace is a fidelity-wall relation that
// holds to the last digit: a link that fails and recovers before the first
// flow starts (incast's first burst is one Period in) leaves the Result of
// the fault-free run, SimEvents aside. On Opera that pins the recovery
// path end to end — the epidemic spreads, informed ToRs route by recovery
// tables built slice by slice from a fault table that is whole again,
// uninformed ones by the originals, and no packet can tell; on the
// expander, that tables rebuilt in place equal the ones they replaced; on
// RotorNet, that circuits come back; on the Clos, that ECMP sprays over
// every uplink again. Seed 2: at seed 1 a bulk incast sender shares its
// receiver's rack, a flow RotorNet never finishes even fault-free.
func TestFaultBeforeTrafficLeavesNoTrace(t *testing.T) {
	for _, fab := range goldenFabrics {
		network := fab.network
		events, err := scenario.ParseEvents(fmt.Sprintf("120us:link:3:%[1]d,310us:recover-link:3:%[1]d", fab.hi))
		if err != nil {
			t.Fatal(err)
		}
		sp := scenario.Spec{
			Name: network + "/incast", Network: network, Seed: 2,
			Sources: []scenario.SourceSpec{
				{Type: "incast", FlowBytes: 60_000, Fanin: 12, Period: 500 * eventsim.Microsecond, Bursts: 6},
				{Type: "incast", FlowBytes: 200_000, Fanin: 6, Period: 700 * eventsim.Microsecond, Bursts: 4, Bulk: true, Tag: "bulk"},
			},
			Duration: 20 * eventsim.Millisecond,
		}
		run := func(sp scenario.Spec) scenario.Result {
			t.Helper()
			sc, err := sp.Scenario()
			if err != nil {
				t.Fatal(err)
			}
			cl, res := scenario.Collect(sc)
			if res.Err != "" {
				t.Fatalf("%s: %s", sp.Name, res.Err)
			}
			if !res.Completed || cl.Faults().Lost != 0 {
				t.Fatalf("%s: completed=%v lost=%d: the relation needs every flow done and no packet near the fault",
					sp.Name, res.Completed, cl.Faults().Lost)
			}
			res.SimEvents = 0
			return res
		}
		clean := run(sp)
		sp.Events = events
		if faulted := run(sp); !faulted.Equal(clean) {
			t.Errorf("%s: a fault recovered before the first flow changed the result:\nfault-free %+v\nfaulted    %+v", network, clean, faulted)
		}
	}
}

// TestFaultSpecRoundTripRunsEqual is a fidelity-wall relation that holds
// to the last digit: every golden spec, sent through JSON (grid files) and
// through gob (the sweep's wire), runs to the Result of the spec it came
// from, SimEvents included — a fault schedule is the same value on both
// sides of the process boundary.
func TestFaultSpecRoundTripRunsEqual(t *testing.T) {
	run := func(sp scenario.Spec) scenario.Result {
		t.Helper()
		sc, err := sp.Scenario()
		if err != nil {
			t.Fatal(err)
		}
		res := scenario.Run(sc)
		if res.Err != "" {
			t.Fatalf("%s seed %d: %s", sp.Name, sp.Seed, res.Err)
		}
		return res
	}
	for _, sp := range goldenSpecs(t) {
		if raceEnabled && sp.Seed != 1 {
			continue // every fabric and fault kind still runs; the race lane stays fast
		}
		direct := run(sp)
		var fromJSON, fromGob scenario.Spec
		data, err := json.Marshal(sp)
		if err == nil {
			err = json.Unmarshal(data, &fromJSON)
		}
		if err != nil {
			t.Fatalf("%s: JSON: %v", sp.Name, err)
		}
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(sp); err != nil {
			t.Fatalf("%s: gob encode: %v", sp.Name, err)
		}
		if err := gob.NewDecoder(&buf).Decode(&fromGob); err != nil {
			t.Fatalf("%s: gob decode: %v", sp.Name, err)
		}
		for _, back := range []struct {
			wire string
			sp   scenario.Spec
		}{{"json", fromJSON}, {"gob", fromGob}} {
			if res := run(back.sp); !res.Equal(direct) {
				t.Errorf("%s seed %d: the %s-decoded spec ran differently:\ndirect  %+v\ndecoded %+v",
					sp.Name, sp.Seed, back.wire, direct, res)
			}
		}
	}
}

// TestFaultSpecWireBytes pins the JSON form of a fault event — one per
// target kind, fault kind and op, plus bench's churn_sweep schedule — to
// the bytes scenario.TargetSpec/FaultSpec produced before they became
// aliases of sim.Target/sim.Fault: grid files written then still decode,
// and recorded specs hash the same.
func TestFaultSpecWireBytes(t *testing.T) {
	us, ms := eventsim.Microsecond, eventsim.Millisecond
	const zeroFault = `"Fault":{"Kind":"","Rate":0,"RateFraction":0,"Up":0,"Down":0}`
	for _, tc := range []struct {
		es   scenario.EventSpec
		want string
	}{
		{scenario.EventSpec{At: 500 * us, Target: sim.FlatLink(3, 2)},
			`{"At":500000,"Op":"","Target":{"Kind":"link","Tier":0,"Switch":3,"Port":2,"ID":0},` + zeroFault + `,"Fraction":0}`},
		{scenario.EventSpec{At: ms, Op: "inject", Target: sim.Target{Kind: sim.TargetLink, Tier: 2, Port: 3}, Fault: sim.DownFault()},
			`{"At":1000000,"Op":"inject","Target":{"Kind":"link","Tier":2,"Switch":0,"Port":3,"ID":0},"Fault":{"Kind":"down","Rate":0,"RateFraction":0,"Up":0,"Down":0},"Fraction":0}`},
		{scenario.EventSpec{At: ms, Op: "inject", Target: sim.ToRTarget(7), Fault: sim.DownFault()},
			`{"At":1000000,"Op":"inject","Target":{"Kind":"tor","Tier":0,"Switch":0,"Port":0,"ID":7},"Fault":{"Kind":"down","Rate":0,"RateFraction":0,"Up":0,"Down":0},"Fraction":0}`},
		{scenario.EventSpec{At: ms, Op: "inject", Target: sim.TierSwitchTarget(3, 5), Fault: sim.DownFault()},
			`{"At":1000000,"Op":"inject","Target":{"Kind":"switch","Tier":3,"Switch":0,"Port":0,"ID":5},"Fault":{"Kind":"down","Rate":0,"RateFraction":0,"Up":0,"Down":0},"Fraction":0}`},
		{scenario.EventSpec{At: ms, Op: "inject", Target: sim.FlatLink(4, 0), Fault: sim.LossyFault(0.01)},
			`{"At":1000000,"Op":"inject","Target":{"Kind":"link","Tier":0,"Switch":4,"Port":0,"ID":0},"Fault":{"Kind":"lossy","Rate":0.01,"RateFraction":0,"Up":0,"Down":0},"Fraction":0}`},
		{scenario.EventSpec{At: ms, Op: "inject", Target: sim.FlatLink(4, 0), Fault: sim.DegradedFault(0.5)},
			`{"At":1000000,"Op":"inject","Target":{"Kind":"link","Tier":0,"Switch":4,"Port":0,"ID":0},"Fault":{"Kind":"degraded","Rate":0,"RateFraction":0.5,"Up":0,"Down":0},"Fraction":0}`},
		{scenario.EventSpec{At: ms, Op: "inject", Target: sim.FlatLink(5, 1), Fault: sim.FlappingFault(200*us, 100*us)},
			`{"At":1000000,"Op":"inject","Target":{"Kind":"link","Tier":0,"Switch":5,"Port":1,"ID":0},"Fault":{"Kind":"flapping","Rate":0,"RateFraction":0,"Up":200000,"Down":100000},"Fraction":0}`},
		{scenario.EventSpec{At: 2 * ms, Op: "recover", Target: sim.SwitchTarget(1)},
			`{"At":2000000,"Op":"recover","Target":{"Kind":"switch","Tier":0,"Switch":0,"Port":0,"ID":1},` + zeroFault + `,"Fraction":0}`},
		{scenario.EventSpec{At: us, Op: "fail-random-links", Fraction: 0.05},
			`{"At":1000,"Op":"fail-random-links","Target":{"Kind":"","Tier":0,"Switch":0,"Port":0,"ID":0},` + zeroFault + `,"Fraction":0.05}`},
		// bench's churn_sweep schedule.
		{scenario.EventSpec{At: 20 * ms, Target: sim.FlatLink(3, 2), Fault: sim.Fault{Kind: "lossy", Rate: 0.01}},
			`{"At":20000000,"Op":"","Target":{"Kind":"link","Tier":0,"Switch":3,"Port":2,"ID":0},"Fault":{"Kind":"lossy","Rate":0.01,"RateFraction":0,"Up":0,"Down":0},"Fraction":0}`},
		{scenario.EventSpec{At: 100 * ms, Op: "recover", Target: sim.FlatLink(3, 2)},
			`{"At":100000000,"Op":"recover","Target":{"Kind":"link","Tier":0,"Switch":3,"Port":2,"ID":0},` + zeroFault + `,"Fraction":0}`},
		{scenario.EventSpec{At: 40 * ms, Target: sim.FlatLink(5, 1), Fault: sim.Fault{Kind: "flapping", Up: 2 * ms, Down: ms}},
			`{"At":40000000,"Op":"","Target":{"Kind":"link","Tier":0,"Switch":5,"Port":1,"ID":0},"Fault":{"Kind":"flapping","Rate":0,"RateFraction":0,"Up":2000000,"Down":1000000},"Fraction":0}`},
		{scenario.EventSpec{At: 110 * ms, Op: "recover", Target: sim.FlatLink(5, 1)},
			`{"At":110000000,"Op":"recover","Target":{"Kind":"link","Tier":0,"Switch":5,"Port":1,"ID":0},` + zeroFault + `,"Fraction":0}`},
	} {
		got, err := json.Marshal(tc.es)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != tc.want {
			t.Errorf("%+v marshals to\n%s\nwant\n%s", tc.es, got, tc.want)
		}
		var back scenario.EventSpec
		if err := json.Unmarshal([]byte(tc.want), &back); err != nil || back != tc.es {
			t.Errorf("%s decodes to %+v (%v), want %+v", tc.want, back, err, tc.es)
		}
	}
}
