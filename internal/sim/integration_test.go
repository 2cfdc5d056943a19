package sim_test

import (
	"slices"
	"testing"

	"github.com/opera-net/opera/internal/eventsim"
	"github.com/opera-net/opera/internal/ndp"
	"github.com/opera-net/opera/internal/rotorlb"
	"github.com/opera-net/opera/internal/sim"
	"github.com/opera-net/opera/internal/topology"
)

// funcHandler adapts a closure to eventsim.Handler, so a test can
// schedule one through AtCall/AfterCall.
type funcHandler func()

func (f funcHandler) OnEvent(any) { f() }

// testbed bundles a small Opera network with both transports attached.
type testbed struct {
	eng    *eventsim.Engine
	net    *sim.OperaNet
	lb     *rotorlb.LB
	ndp    *ndp.Fabric
	nextID int64
}

func newTestbed(t *testing.T, racks, hostsPer, switches int) *testbed {
	t.Helper()
	return newTestbedOrder(t, racks, hostsPer, switches, false)
}

// newTestbedOrder is newTestbed with the transports' attach order chosen.
func newTestbedOrder(t *testing.T, racks, hostsPer, switches int, ndpFirst bool) *testbed {
	t.Helper()
	topo, err := topology.NewOpera(topology.Config{
		NumRacks:     racks,
		HostsPerRack: hostsPer,
		NumSwitches:  switches,
		Seed:         1,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng := eventsim.New()
	net := sim.NewOperaNet(eng, sim.DefaultConfig(), topo, 7)
	tb := &testbed{eng: eng, net: net}
	if ndpFirst {
		tb.ndp = ndp.Attach(net.Hosts(), net.Metrics())
	}
	tb.lb = rotorlb.Attach(net)
	if !ndpFirst {
		tb.ndp = ndp.Attach(net.Hosts(), net.Metrics())
	}
	net.Start()
	return tb
}

func (tb *testbed) flow(src, dst int, size int64, class sim.Class) *sim.Flow {
	tb.nextID++
	f := &sim.Flow{
		ID:      tb.nextID,
		SrcHost: int32(src),
		DstHost: int32(dst),
		SrcRack: int32(src / tb.net.HostsPerRack()),
		DstRack: int32(dst / tb.net.HostsPerRack()),
		Size:    size,
		Class:   class,
	}
	tb.net.Metrics().AddFlow(f)
	return f
}

func (tb *testbed) startLL(f *sim.Flow)   { tb.ndp.StartFlow(f) }
func (tb *testbed) startBulk(f *sim.Flow) { tb.lb.StartFlow(f) }

// runUntilDone drives the simulation until all flows complete or the
// deadline passes, returning whether all completed.
func (tb *testbed) runUntilDone(t *testing.T, deadline eventsim.Time) bool {
	t.Helper()
	step := 100 * eventsim.Microsecond
	for tb.eng.Now() < deadline {
		tb.eng.RunUntil(tb.eng.Now() + step)
		done, total := tb.net.Metrics().DoneCount()
		if done == total {
			return true
		}
	}
	return false
}

func TestLLSingleSmallFlow(t *testing.T) {
	tb := newTestbed(t, 16, 4, 4)
	f := tb.flow(0, 63, 4500, sim.ClassLowLatency) // rack 0 → rack 15, 3 packets
	tb.startLL(f)
	if !tb.runUntilDone(t, 50*eventsim.Millisecond) {
		t.Fatalf("flow did not complete: rcvd %d/%d", f.BytesRcvd, f.Size)
	}
	// 3 packets over ≤5 hops: minimum ~ a few µs; must be well under 100 µs.
	if fct := f.FCT(); fct > 100*eventsim.Microsecond {
		t.Fatalf("FCT = %v, want < 100µs", fct)
	}
	if f.BytesRcvd != f.Size {
		t.Fatalf("received %d bytes, want %d", f.BytesRcvd, f.Size)
	}
}

func TestLLRackLocalFlow(t *testing.T) {
	tb := newTestbed(t, 16, 4, 4)
	f := tb.flow(0, 1, 1500, sim.ClassLowLatency)
	tb.startLL(f)
	if !tb.runUntilDone(t, 10*eventsim.Millisecond) {
		t.Fatal("rack-local flow did not complete")
	}
	// host→ToR→host: 2 serializations + 2 props ≈ 3.4 µs.
	if fct := f.FCT(); fct > 10*eventsim.Microsecond {
		t.Fatalf("local FCT = %v", fct)
	}
}

func TestLLManyFlowsAllComplete(t *testing.T) {
	tb := newTestbed(t, 16, 4, 4)
	n := tb.net.Topology().NumHosts()
	var flows []*sim.Flow
	for i := 0; i < n; i++ {
		f := tb.flow(i, (i+17)%n, 30000, sim.ClassLowLatency)
		flows = append(flows, f)
		tb.startLL(f)
	}
	if !tb.runUntilDone(t, 200*eventsim.Millisecond) {
		done, total := tb.net.Metrics().DoneCount()
		t.Fatalf("only %d/%d flows completed", done, total)
	}
	for _, f := range flows {
		if f.BytesRcvd != f.Size {
			t.Fatalf("flow %d: %d/%d bytes", f.ID, f.BytesRcvd, f.Size)
		}
	}
	// Low-latency traffic pays a bandwidth tax (multi-hop paths).
	if tax := tb.net.Metrics().BandwidthTax(sim.ClassLowLatency); tax <= 0 {
		t.Fatalf("LL tax = %v, want > 0", tax)
	}
}

func TestBulkSingleFlowDirectOnly(t *testing.T) {
	tb := newTestbed(t, 16, 4, 4)
	f := tb.flow(0, 60, 2<<20, sim.ClassBulk) // 2 MB rack 0 → rack 15
	tb.startBulk(f)
	if !tb.runUntilDone(t, 2000*eventsim.Millisecond) {
		t.Fatalf("bulk flow incomplete: %d/%d bytes (NACKs %d)",
			f.BytesRcvd, f.Size, tb.lb.NACKs)
	}
	if f.BytesRcvd != f.Size {
		t.Fatalf("byte mismatch: %d/%d", f.BytesRcvd, f.Size)
	}
}

func TestBulkTaxIsLowAllToAll(t *testing.T) {
	// True all-to-all bulk: every rack pair has demand, so no circuit has
	// spare capacity to offer and nearly all bytes ride direct (tax ≈ 0).
	// This is the Figure 8 regime where Opera avoids the bandwidth tax.
	tb := newTestbed(t, 16, 4, 4)
	topo := tb.net.Topology()
	n := topo.NumHosts()
	for i := 0; i < n; i++ {
		for r := 0; r < topo.NumRacks(); r++ {
			if r == i/topo.HostsPerRack() {
				continue
			}
			dst := r*topo.HostsPerRack() + i%topo.HostsPerRack()
			f := tb.flow(i, dst, 100_000, sim.ClassBulk)
			tb.startBulk(f)
		}
	}
	if !tb.runUntilDone(t, 3000*eventsim.Millisecond) {
		done, total := tb.net.Metrics().DoneCount()
		t.Fatalf("only %d/%d bulk flows completed (NACKs %d)", done, total, tb.lb.NACKs)
	}
	tax := tb.net.Metrics().BandwidthTax(sim.ClassBulk)
	if tax > 0.15 {
		t.Fatalf("all-to-all bulk tax = %v, want ≈0 (direct paths)", tax)
	}
}

func TestBulkSkewUsesVLB(t *testing.T) {
	// One hot rack pair with everything else idle: VLB should engage and
	// beat the single direct circuit's time share.
	tb := newTestbed(t, 16, 4, 4)
	var flows []*sim.Flow
	for i := 0; i < 4; i++ { // all hosts of rack 0 → rack 8
		f := tb.flow(i, 32+i, 4<<20, sim.ClassBulk)
		flows = append(flows, f)
		tb.startBulk(f)
	}
	if !tb.runUntilDone(t, 5000*eventsim.Millisecond) {
		done, total := tb.net.Metrics().DoneCount()
		t.Fatalf("only %d/%d flows completed", done, total)
	}
	// VLB bytes were relayed: RotorLB segments carry their hops, so the
	// bulk bandwidth tax is > 0 only if some byte took a relay hop.
	if tax := tb.net.Metrics().BandwidthTax(sim.ClassBulk); tax <= 0 {
		t.Fatalf("skewed workload sent no VLB traffic (bulk tax %v)", tax)
	}
}

func TestMixedLLAndBulk(t *testing.T) {
	// LL flows must retain low FCT while bulk saturates the fabric.
	tb := newTestbed(t, 16, 4, 4)
	n := tb.net.Topology().NumHosts()
	for i := 0; i < n; i++ {
		dst := (i + 29) % n
		if dst/tb.net.HostsPerRack() == i/tb.net.HostsPerRack() {
			dst = (dst + 5) % n
		}
		tb.startBulk(tb.flow(i, dst, 1<<20, sim.ClassBulk))
	}
	var llFlows []*sim.Flow
	for i := 0; i < 32; i++ {
		src := (i * 7) % n
		dst := (src + n/2) % n
		f := tb.flow(src, dst, 6000, sim.ClassLowLatency)
		llFlows = append(llFlows, f)
	}
	// Start LL mid-way so they contend with bulk in flight.
	tb.eng.AfterCall(500*eventsim.Microsecond, funcHandler(func() {
		for _, f := range llFlows {
			tb.startLL(f)
		}
	}), nil)
	if !tb.runUntilDone(t, 5000*eventsim.Millisecond) {
		done, total := tb.net.Metrics().DoneCount()
		t.Fatalf("only %d/%d flows completed", done, total)
	}
	for _, f := range llFlows {
		if fct := f.FCT(); fct > 1*eventsim.Millisecond {
			t.Fatalf("LL flow FCT = %v under bulk load, want << 1ms", fct)
		}
	}
}

// Each transport claims its own packet kinds on a host, so the order they
// attach in cannot matter: the same mixed run is event-for-event identical
// either way.
func TestAttachOrderIsImmaterial(t *testing.T) {
	run := func(ndpFirst bool) (ends []eventsim.Time, steps uint64) {
		tb := newTestbedOrder(t, 16, 4, 4, ndpFirst)
		n := tb.net.Topology().NumHosts()
		var flows []*sim.Flow
		for i := 0; i < n; i++ {
			bulk := tb.flow(i, (i+29)%n, 200_000, sim.ClassBulk)
			tb.startBulk(bulk)
			ll := tb.flow(i, (i+n/2)%n, 6000, sim.ClassLowLatency)
			tb.startLL(ll)
			flows = append(flows, bulk, ll)
		}
		if !tb.runUntilDone(t, 2000*eventsim.Millisecond) {
			done, total := tb.net.Metrics().DoneCount()
			t.Fatalf("ndpFirst=%v: only %d/%d flows completed", ndpFirst, done, total)
		}
		for _, f := range flows {
			ends = append(ends, f.End)
		}
		return ends, tb.eng.Steps()
	}
	lbEnds, lbSteps := run(false)
	ndpEnds, ndpSteps := run(true)
	if lbSteps != ndpSteps {
		t.Fatalf("RotorLB-then-NDP ran %d events, NDP-then-RotorLB %d", lbSteps, ndpSteps)
	}
	if !slices.Equal(lbEnds, ndpEnds) {
		t.Fatal("per-flow completion times differ with attach order")
	}
}

func TestSliceClockAdvances(t *testing.T) {
	tb := newTestbed(t, 16, 4, 4)
	var seen []int64
	tb.net.OnSlice(func(s int64) { seen = append(seen, s) })
	tb.eng.RunUntil(1050 * eventsim.Microsecond)
	// Slice duration 100µs: boundaries at 100,200,...,1000 plus none for 0
	// (Start already ran at attach time before OnSlice registration).
	if len(seen) < 10 {
		t.Fatalf("saw %d slice boundaries, want >= 10", len(seen))
	}
	for i := 1; i < len(seen); i++ {
		if seen[i] != seen[i-1]+1 {
			t.Fatalf("slice sequence broken: %v", seen)
		}
	}
	if last := seen[len(seen)-1]; last < 10 {
		t.Fatalf("current slice = %d", last)
	}
}
