package scenario_test

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	opera "github.com/opera-net/opera"
	"github.com/opera-net/opera/internal/eventsim"
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
	// hi is the highest uplink coordinate the fabric's fault map accepts
	// at the default 16×4 (Clos k=8) sizing; rotor marks the fabrics that
	// run RotorLB, where an app-tagged shuffle is cheap.
	fabrics := []struct {
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
	var got strings.Builder
	for _, fab := range fabrics {
		for _, seed := range []int64{1, 2} {
			if fab.rotor {
				line(t, &got, scenario.Spec{
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
			line(t, &got, scenario.Spec{
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
// expander, that tables rebuilt in place equal the ones they replaced.
func TestFaultBeforeTrafficLeavesNoTrace(t *testing.T) {
	events, err := scenario.ParseEvents("120us:link:3:2,310us:recover-link:3:2")
	if err != nil {
		t.Fatal(err)
	}
	for _, network := range []string{"opera", "expander"} {
		sp := scenario.Spec{
			Name: network + "/incast", Network: network, Seed: 1,
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
