package trace

import (
	"strings"
	"testing"

	"github.com/opera-net/opera/internal/eventsim"
	"github.com/opera-net/opera/internal/sim"
	"github.com/opera-net/opera/internal/topology"
)

type sink struct{}

func (sink) Receive(p *sim.Packet, _ *sim.Port) { p.Release() }

func TestSamplerObservesQueues(t *testing.T) {
	eng := eventsim.New()
	cfg := sim.DefaultConfig()
	pt := sim.NewPort(eng, &cfg, "p", sink{})
	pt.SetEnabled(false)
	for i := 0; i < 4; i++ {
		p := sim.NewPacket()
		p.Kind = sim.KindData
		p.Class = sim.ClassLowLatency
		p.Size = 1500
		pt.Enqueue(p)
	}
	s := NewSampler(eng, 10*eventsim.Microsecond)
	probe := s.Watch("p", pt)
	s.Start()
	eng.RunUntil(100 * eventsim.Microsecond)
	if probe.LL.N() < 5 {
		t.Fatalf("samples = %d", probe.LL.N())
	}
	if probe.LL.Max() != 6000 {
		t.Fatalf("max LL depth = %v, want 6000", probe.LL.Max())
	}
	pt.SetEnabled(true)
	eng.RunUntil(300 * eventsim.Microsecond)
	if min := probe.LL.Percentile(0); min != 0 {
		t.Fatalf("queue never drained: min=%v", min)
	}
	rep := s.Report()
	if !strings.Contains(rep, "p") || !strings.Contains(rep, "6000") {
		t.Fatalf("report:\n%s", rep)
	}
	s.Stop()
}

func TestSamplerPanicsOnBadPeriod(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewSampler(eventsim.New(), 0)
}

func TestFlowLog(t *testing.T) {
	l := NewFlowLog(3)
	l.Add(1, 10, "start", 0)
	l.Add(2, 10, "done", 500)
	l.Add(3, 11, "start", 0)
	l.Add(4, 11, "done", 900) // over limit, dropped
	if len(l.Events()) != 3 {
		t.Fatalf("events = %d", len(l.Events()))
	}
	done := l.Filter(func(e FlowEvent) bool { return e.What == "done" })
	if len(done) != 1 || done[0].Extra != 500 {
		t.Fatalf("filter = %+v", done)
	}
}

func TestAttachFlowLifecycle(t *testing.T) {
	m := sim.NewMetrics()
	l := NewFlowLog(0)
	var prevCalled bool
	m.OnFlowDone = func(*sim.Flow) { prevCalled = true }
	AttachFlowLifecycle(m, l)
	f := &sim.Flow{ID: 7, Size: 123}
	m.AddFlow(f)
	m.FlowDone(f, 99)
	if len(l.Events()) != 1 || l.Events()[0].Flow != 7 || l.Events()[0].At != 99 {
		t.Fatalf("log = %+v", l.Events())
	}
	if !prevCalled {
		t.Fatal("chained callback not invoked")
	}
}

func TestUtilizationReport(t *testing.T) {
	eng := eventsim.New()
	cfg := sim.DefaultConfig()
	cfg.DataQueueBytes = 1 << 20 // no trimming: this test checks accounting
	pt := sim.NewPort(eng, &cfg, "p", sink{})
	for i := 0; i < 10; i++ {
		p := sim.NewPacket()
		p.Kind = sim.KindData
		p.Class = sim.ClassLowLatency
		p.Size = 1500
		pt.Enqueue(p)
	}
	eng.Run()
	rep := UtilizationReport(map[string]*sim.Port{"p": pt}, 100*eventsim.Microsecond, 10)
	// 15 kB over a 125 kB interval = 12%.
	if !strings.Contains(rep, "12.0%") {
		t.Fatalf("report:\n%s", rep)
	}
}

func TestSamplerOnLiveCluster(t *testing.T) {
	// End-to-end: sample an Opera ToR's uplinks under traffic and verify
	// the low-latency queues respect the 12 KB bound ε is sized against.
	eng := eventsim.New()
	cfg := sim.DefaultConfig()
	topoCluster(t, eng, cfg)
}

func topoCluster(t *testing.T, eng *eventsim.Engine, cfg sim.Config) {
	t.Helper()
	// Built via the sim package directly to keep trace decoupled from the
	// public facade.
	top, err := topologyFor()
	if err != nil {
		t.Fatal(err)
	}
	net := sim.NewOperaNet(eng, cfg, top, 3)
	s := NewSampler(eng, 5*eventsim.Microsecond)
	for sw := 0; sw < top.Uplinks(); sw++ {
		s.Watch("tor0-up", net.ToR(0).Uplink(sw))
	}
	s.Start()
	net.Start()
	eng.RunUntil(2 * eventsim.Millisecond)
	for _, pr := range s.Probes() {
		if pr.LL.Max() > float64(cfg.DataQueueBytes) {
			t.Fatalf("LL queue exceeded bound: %v > %d", pr.LL.Max(), cfg.DataQueueBytes)
		}
	}
}

func topologyFor() (*topology.Opera, error) {
	return topology.NewOpera(topology.Config{
		NumRacks: 8, HostsPerRack: 2, NumSwitches: 4, Seed: 1,
	})
}
