package obs_test

import (
	"encoding/json"
	"testing"

	opera "github.com/opera-net/opera"
	"github.com/opera-net/opera/internal/eventsim"
	"github.com/opera-net/opera/internal/obs"
	"github.com/opera-net/opera/internal/sim"
	"github.com/opera-net/opera/scenario"
)

// observedScenario is the PR's hard wall in miniature: a mixed workload
// (tagged low-latency + bulk), a mid-run fault schedule and sketch
// retention — every subsystem an observer reads from.
func observedScenario(observer scenario.Observer) scenario.Scenario {
	sc, err := scenario.Spec{
		Name:      "obs-determinism",
		Network:   "opera",
		Seed:      11,
		Retention: scenario.RetentionSpec{Sketch: true},
		Sources: []scenario.SourceSpec{
			{Type: "shuffle", Participants: 12, FlowBytes: 60_000, Bulk: true, Tag: "shuffle"},
			{Type: "shuffle", Participants: 12, FlowBytes: 2_000, Stagger: 100 * eventsim.Microsecond, Tag: "mice"},
		},
		Events: []scenario.EventSpec{
			{At: 200 * eventsim.Microsecond, Target: sim.FlatLink(3, 1), Fault: sim.Fault{Kind: sim.FaultLossy, Rate: 0.3}},
			{At: 400 * eventsim.Microsecond, Target: sim.FlatLink(5, 2)},
			{At: 2 * eventsim.Millisecond, Op: "recover", Target: sim.FlatLink(3, 1)},
		},
		Duration: 4000 * eventsim.Millisecond,
	}.Scenario()
	if err != nil {
		panic(err)
	}
	sc.Observer = observer
	return sc
}

// TestObserverDeterminism is the package's contract: attaching a
// Publisher sampling every 100 µs leaves the Result byte-identical to the
// unobserved run — same flow outcomes, same FCT stats, same telemetry
// summary, same SimEvents count.
func TestObserverDeterminism(t *testing.T) {
	plain := scenario.Run(observedScenario(nil))
	if plain.Err != "" {
		t.Fatalf("plain run error: %s", plain.Err)
	}

	box := &obs.Mailbox{}
	pub := obs.NewPublisher(box, 100*eventsim.Microsecond)
	observed := scenario.Run(observedScenario(pub))
	if observed.Err != "" {
		t.Fatalf("observed run error: %s", observed.Err)
	}

	if !plain.Equal(observed) {
		pj, _ := json.MarshalIndent(plain, "", " ")
		oj, _ := json.MarshalIndent(observed, "", " ")
		t.Fatalf("observed run diverged from plain run\nplain:    %s\nobserved: %s", pj, oj)
	}

	// The observer itself must have seen the run: a snapshot was published
	// and reflects completed flows.
	s := box.Snapshot()
	if s == nil {
		t.Fatal("no snapshot published")
	}
	if s.Seq == 0 || s.FlowsDone == 0 {
		t.Fatalf("last snapshot looks empty: seq=%d flows_done=%d", s.Seq, s.FlowsDone)
	}
	if s.Engine.MetaFired == 0 {
		t.Fatal("expected meta events to have fired")
	}
	if s.Window == nil || len(s.Classes) == 0 || len(s.Tags) == 0 {
		t.Fatalf("telemetry views missing: window=%v classes=%d tags=%d",
			s.Window, len(s.Classes), len(s.Tags))
	}
}

// TestPublisherFaultVisibility pins the fault view: sampling between
// injection and recovery shows the active faults and their coordinates.
func TestPublisherFaultVisibility(t *testing.T) {
	box := &obs.Mailbox{}
	probe := &faultProbe{box: box}
	sc := observedScenario(probe)
	res := scenario.Run(sc)
	if res.Err != "" {
		t.Fatalf("run error: %s", res.Err)
	}
	if probe.at1ms == nil {
		t.Fatal("probe never sampled at 1 ms")
	}
	fs := probe.at1ms.Faults
	if fs == nil || len(fs.Active) != 2 {
		t.Fatalf("want 2 active faults at 1 ms, got %+v", fs)
	}
}

// faultProbe is a minimal observer capturing one snapshot at 1 ms, when
// the lossy(3,1) and down(5,2) faults are both applied.
type faultProbe struct {
	box   *obs.Mailbox
	cl    *opera.Cluster
	at1ms *obs.Snapshot
}

func (f *faultProbe) Attach(cl *opera.Cluster, _ eventsim.Time) {
	f.cl = cl
	cl.Engine().AtMetaCall(eventsim.Millisecond, f, nil)
}

func (f *faultProbe) OnEvent(any) {
	f.cl.Engine().MetaStep()
	f.at1ms = obs.Capture(f.cl)
}

// TestObservingDoesNotAttachFaultInjector pins what a snapshot says about
// faults: every fabric carries its fault table, but a snapshot lists a
// faults block only while something is applied — none for an observed
// fault-free run, exactly the one fault once a link cut has fired.
func TestObservingDoesNotAttachFaultInjector(t *testing.T) {
	run := func(events []scenario.EventSpec) *obs.Snapshot {
		t.Helper()
		box := &obs.Mailbox{}
		sc := observedScenario(obs.NewPublisher(box, 100*eventsim.Microsecond))
		sc.Spec.Events = events
		if res := scenario.Run(sc); res.Err != "" {
			t.Fatalf("run error: %s", res.Err)
		}
		s := box.Snapshot()
		if s == nil {
			t.Fatal("no snapshot published")
		}
		return s
	}

	if s := run(nil); s.Faults != nil {
		t.Fatalf("fault-free snapshot reports faults: %+v", s.Faults)
	}

	s := run([]scenario.EventSpec{{At: 400 * eventsim.Microsecond, Target: sim.FlatLink(5, 2)}})
	if s.Faults == nil || len(s.Faults.Active) != 1 || s.Faults.Active[0].Target != "link(rack=5,up=2)" {
		t.Fatalf("want exactly the one fired fault listed, got %+v", s.Faults)
	}
}
