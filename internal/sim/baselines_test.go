package sim_test

import (
	"testing"

	"github.com/opera-net/opera/internal/eventsim"
	"github.com/opera-net/opera/internal/ndp"
	"github.com/opera-net/opera/internal/rotorlb"
	"github.com/opera-net/opera/internal/sim"
	"github.com/opera-net/opera/internal/topology"
)

func runFlows(t *testing.T, eng *eventsim.Engine, m *sim.Metrics, deadline eventsim.Time) bool {
	t.Helper()
	step := 100 * eventsim.Microsecond
	for eng.Now() < deadline {
		eng.RunUntil(eng.Now() + step)
		done, total := m.DoneCount()
		if done == total {
			return true
		}
	}
	return false
}

func TestExpanderNetDelivery(t *testing.T) {
	topo := topology.MustNewExpander(32, 4, 5, 1)
	eng := eventsim.New()
	net := sim.NewExpanderNet(eng, sim.DefaultConfig(), topo, 7)
	fab := ndp.Attach(net.Hosts(), net.Metrics())

	n := topo.NumRacks * topo.HostsPerRack
	var flows []*sim.Flow
	for i := 0; i < n; i++ {
		f := &sim.Flow{
			ID: int64(i + 1), SrcHost: int32(i), DstHost: int32((i + 37) % n),
			SrcRack: int32(i / topo.HostsPerRack), DstRack: int32((i + 37) % n / topo.HostsPerRack),
			Size: 50000, Class: sim.ClassLowLatency,
		}
		net.Metrics().AddFlow(f)
		flows = append(flows, f)
	}
	for _, f := range flows {
		fab.StartFlow(f)
	}
	if !runFlows(t, eng, net.Metrics(), 500*eventsim.Millisecond) {
		done, total := net.Metrics().DoneCount()
		t.Fatalf("%d/%d flows completed", done, total)
	}
	// Expander pays a bandwidth tax: average hops > 1.
	if tax := net.Metrics().BandwidthTax(sim.ClassLowLatency); tax <= 0.2 {
		t.Fatalf("expander tax = %v, want substantial (multi-hop)", tax)
	}
}

func TestClosNetDelivery(t *testing.T) {
	topo := topology.MustNewFoldedClos(8, 3) // 192 hosts: 24 ToRs × 8... (k=8,F=3: d=6,u=2)
	eng := eventsim.New()
	net := sim.NewClosNet(eng, sim.DefaultConfig(), topo, 7)
	fab := ndp.Attach(net.Hosts(), net.Metrics())

	n := topo.NumToRs * topo.HostsPerToR
	for i := 0; i < n; i += 3 {
		dst := (i + n/2) % n
		f := &sim.Flow{
			ID: int64(i + 1), SrcHost: int32(i), DstHost: int32(dst),
			SrcRack: int32(i / topo.HostsPerToR), DstRack: int32(dst / topo.HostsPerToR),
			Size: 30000, Class: sim.ClassLowLatency,
		}
		net.Metrics().AddFlow(f)
		fab.StartFlow(f)
	}
	if !runFlows(t, eng, net.Metrics(), 500*eventsim.Millisecond) {
		done, total := net.Metrics().DoneCount()
		t.Fatalf("%d/%d flows completed", done, total)
	}
	// Direct routing: no bandwidth tax in a folded Clos.
	if tax := net.Metrics().BandwidthTax(sim.ClassLowLatency); tax != 0 {
		t.Fatalf("Clos tax = %v, want 0", tax)
	}
}

func TestClosNetRackLocal(t *testing.T) {
	topo := topology.MustNewFoldedClos(8, 3)
	eng := eventsim.New()
	net := sim.NewClosNet(eng, sim.DefaultConfig(), topo, 7)
	fab := ndp.Attach(net.Hosts(), net.Metrics())
	f := &sim.Flow{ID: 1, SrcHost: 0, DstHost: 1, SrcRack: 0, DstRack: 0, Size: 1500, Class: sim.ClassLowLatency}
	net.Metrics().AddFlow(f)
	fab.StartFlow(f)
	if !runFlows(t, eng, net.Metrics(), 10*eventsim.Millisecond) {
		t.Fatal("local flow incomplete")
	}
	if f.FCT() > 10*eventsim.Microsecond {
		t.Fatalf("local FCT = %v", f.FCT())
	}
}

func newRotorTestbed(t *testing.T, hybrid bool) (*eventsim.Engine, *sim.RotorNetSim, *rotorlb.LB, *ndp.Fabric) {
	t.Helper()
	net := rotorSim(t, hybrid)
	eng := net.Engine()
	lb := rotorlb.Attach(net)
	fab := ndp.Attach(net.Hosts(), net.Metrics())
	net.Start()
	return eng, net, lb, fab
}

func TestRotorNetBulkDelivery(t *testing.T) {
	eng, net, lb, _ := newRotorTestbed(t, false)
	n := 64
	for i := 0; i < n; i++ {
		dst := (i + 20) % n
		if dst/4 == i/4 {
			dst = (dst + 4) % n
		}
		f := &sim.Flow{
			ID: int64(i + 1), SrcHost: int32(i), DstHost: int32(dst),
			SrcRack: int32(i / 4), DstRack: int32(dst / 4),
			Size: 300_000, Class: sim.ClassBulk,
		}
		net.Metrics().AddFlow(f)
		lb.StartFlow(f)
	}
	if !runFlows(t, eng, net.Metrics(), 3000*eventsim.Millisecond) {
		done, total := net.Metrics().DoneCount()
		t.Fatalf("%d/%d bulk flows completed (NACKs %d)", done, total, lb.NACKs)
	}
}

func TestRotorNetHybridLowLatency(t *testing.T) {
	eng, net, _, fab := newRotorTestbed(t, true)
	f := &sim.Flow{
		ID: 1, SrcHost: 0, DstHost: 60, SrcRack: 0, DstRack: 15,
		Size: 6000, Class: sim.ClassLowLatency,
	}
	net.Metrics().AddFlow(f)
	fab.StartFlow(f)
	if !runFlows(t, eng, net.Metrics(), 50*eventsim.Millisecond) {
		t.Fatal("hybrid LL flow incomplete")
	}
	// Through the packet fabric: a few serializations, well under 100 µs.
	if f.FCT() > 100*eventsim.Microsecond {
		t.Fatalf("hybrid LL FCT = %v", f.FCT())
	}
}

func TestRotorNetNonHybridShortFlowLatency(t *testing.T) {
	// Without a packet fabric, even a tiny flow waits for a direct
	// circuit: FCT is circuit-scale (~ms), the paper's three-orders gap.
	eng, net, lb, _ := newRotorTestbed(t, false)
	f := &sim.Flow{
		ID: 1, SrcHost: 0, DstHost: 60, SrcRack: 0, DstRack: 15,
		Size: 6000, Class: sim.ClassBulk,
	}
	net.Metrics().AddFlow(f)
	lb.StartFlow(f)
	if !runFlows(t, eng, net.Metrics(), 100*eventsim.Millisecond) {
		t.Fatal("flow incomplete")
	}
	if f.FCT() < 50*eventsim.Microsecond {
		t.Fatalf("non-hybrid short-flow FCT = %v, expected circuit-wait scale", f.FCT())
	}
}
