package sim_test

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"github.com/opera-net/opera/internal/eventsim"
	"github.com/opera-net/opera/internal/sim"
	"github.com/opera-net/opera/internal/workload"

	opera "github.com/opera-net/opera"
)

// The structured fault surface: coordinate universes, validation, and
// the per-fabric target support matrix.

func newCluster(t *testing.T, kind opera.Kind, opts ...opera.Option) *opera.Cluster {
	t.Helper()
	cl, err := opera.New(kind, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

// Satellite pin: switch targets on the expander surface a clean
// "unsupported on this fabric" error, not a silent no-op.
func TestExpanderSwitchTargetUnsupported(t *testing.T) {
	_, ef := expanderTestbed(t)
	err := ef.Inject(sim.SwitchTarget(0), sim.DownFault(), eventsim.Millisecond)
	if !errors.Is(err, sim.ErrUnsupportedTarget) {
		t.Fatalf("Inject(switch) err = %v, want ErrUnsupportedTarget", err)
	}
	if !strings.Contains(err.Error(), "expander") {
		t.Fatalf("error should name the fabric: %v", err)
	}
	if err := ef.Recover(sim.SwitchTarget(0), eventsim.Millisecond); !errors.Is(err, sim.ErrUnsupportedTarget) {
		t.Fatalf("Recover(switch) err = %v, want ErrUnsupportedTarget", err)
	}
	// The structured error is sync: nothing was scheduled, ToR and link
	// targets still validate and work.
	if err := ef.Inject(sim.ToRTarget(0), sim.DownFault(), eventsim.Millisecond); err != nil {
		t.Fatalf("ToR target should stay supported: %v", err)
	}
}

// A tier-0 switch target on the folded Clos is rejected the same way:
// its switch planes are ClosTierAgg and ClosTierCore.
func TestClosDefaultSwitchPlaneUnsupported(t *testing.T) {
	cl := newCluster(t, opera.KindFoldedClos)
	inj := cl.Faults()
	err := inj.Inject(sim.SwitchTarget(0), sim.DownFault(), eventsim.Millisecond)
	if !errors.Is(err, sim.ErrUnsupportedTarget) {
		t.Fatalf("Inject(tier-0 switch) err = %v, want ErrUnsupportedTarget", err)
	}
	for _, tier := range []int{sim.ClosTierAgg, sim.ClosTierCore} {
		if err := inj.Inject(sim.TierSwitchTarget(tier, 0), sim.DownFault(), eventsim.Millisecond); err != nil {
			t.Fatalf("tier %d switch should be supported: %v", tier, err)
		}
	}
}

// The coordinate map of every fabric, checked through the one injector:
// Links enumerates one canonical coordinate per physical cable (sized by
// the fabric's cable count, no duplicates) and each injects and recovers
// cleanly; an alias resolves to its canonical cable; out-of-range and
// wrong-tier coordinates and an absent switch plane are synchronous errors
// that schedule nothing.
func TestLinksUniverses(t *testing.T) {
	tier := func(tier, sw, port int) sim.Target {
		return sim.Target{Kind: sim.TargetLink, Tier: tier, Switch: sw, Port: port}
	}
	small := []opera.Option{opera.WithRacks(8), opera.WithHostsPerRack(2), opera.WithUplinks(4), opera.WithSeed(1)}
	cases := []struct {
		kind   opera.Kind
		opts   []opera.Option
		cables int
		// Links()[orderAt] == orderID pins the enumeration order (0 = unchecked).
		orderAt int
		orderID sim.Target
		// alias → canonical name of one two-named cable (zero = none).
		alias, canonical sim.Target
		bad              []sim.Target // plain errors
		unsupported      []sim.Target // errors.Is ErrUnsupportedTarget
	}{
		{kind: opera.KindOpera, cables: 16 * 4,
			orderAt: 5, orderID: sim.FlatLink(1, 1), // rack-major
			bad: []sim.Target{sim.FlatLink(16, 0), sim.FlatLink(-1, 0), sim.FlatLink(0, 4), tier(1, 0, 0),
				sim.ToRTarget(16), sim.SwitchTarget(4)},
			unsupported: []sim.Target{sim.TierSwitchTarget(sim.ClosTierAgg, 0)}},
		{kind: opera.KindExpander, opts: []opera.Option{opera.WithUplinks(5)}, cables: 16 * 5 / 2,
			bad:         []sim.Target{sim.FlatLink(16, 0), sim.FlatLink(0, 5), sim.FlatLink(0, -1), tier(1, 0, 0), sim.ToRTarget(-1)},
			unsupported: []sim.Target{sim.SwitchTarget(0), sim.TierSwitchTarget(sim.ClosTierAgg, 0)}},
		{kind: opera.KindRotorNet, opts: small, cables: 8 * 4,
			bad:         []sim.Target{sim.FlatLink(8, 0), sim.FlatLink(0, 4), tier(2, 0, 0), sim.ToRTarget(8), sim.SwitchTarget(-1)},
			unsupported: []sim.Target{sim.TierSwitchTarget(sim.ClosTierCore, 0)}},
		// The hybrid's packet uplink is not a fault coordinate: 3 rotor
		// switches per rack remain.
		{kind: opera.KindRotorNetHybrid, opts: small, cables: 8 * 3,
			bad:         []sim.Target{sim.FlatLink(0, 3), sim.SwitchTarget(3)},
			unsupported: []sim.Target{sim.TierSwitchTarget(1, 0)}},
		// k=8, F=3: 32 ToRs × 2 uplinks on tier 1, 16 aggs × 4 on tier 2, 8 cores.
		{kind: opera.KindFoldedClos, cables: 32*2 + 16*4,
			orderAt: 32 * 2, orderID: tier(sim.ClosTierAgg, 0, 0), // tier 1 first, then tier 2
			alias: sim.FlatLink(2, 1), canonical: tier(sim.ClosTierToR, 2, 1),
			bad: []sim.Target{sim.FlatLink(32, 0), sim.FlatLink(0, 2), tier(sim.ClosTierAgg, 16, 0),
				tier(sim.ClosTierAgg, 0, 4), tier(sim.ClosTierCore, 0, 0),
				sim.ToRTarget(32), sim.TierSwitchTarget(sim.ClosTierAgg, 16), sim.TierSwitchTarget(sim.ClosTierCore, 8)},
			unsupported: []sim.Target{sim.SwitchTarget(0), sim.TierSwitchTarget(sim.ClosTierToR, 0)}},
	}
	for _, tc := range cases {
		t.Run(tc.kind.String(), func(t *testing.T) {
			cl := newCluster(t, tc.kind, tc.opts...)
			inj, eng := cl.Faults(), cl.Engine()
			if en, ok := cl.Network().(*sim.ExpanderNet); ok {
				// Every expander cable has two names; take rack 2's first.
				g := en.Topology().G
				peer := int(g.Neighbors(2)[0])
				for rev, nb := range g.Neighbors(peer) {
					if int(nb) == 2 {
						tc.alias, tc.canonical = sim.FlatLink(2, 0), sim.FlatLink(peer, rev)
					}
				}
				if peer > 2 {
					tc.alias, tc.canonical = tc.canonical, tc.alias
				}
			}

			pending := eng.Len()
			for _, target := range append(tc.bad, tc.unsupported...) {
				for _, err := range []error{
					inj.Inject(target, sim.DownFault(), eventsim.Millisecond),
					inj.Recover(target, eventsim.Millisecond),
				} {
					if err == nil {
						t.Errorf("%v accepted, want an error", target)
					}
				}
			}
			for _, target := range tc.unsupported {
				err := inj.Inject(target, sim.DownFault(), eventsim.Millisecond)
				if !errors.Is(err, sim.ErrUnsupportedTarget) || !strings.Contains(err.Error(), tc.kind.String()) {
					t.Errorf("%v: err = %v, want ErrUnsupportedTarget naming the fabric", target, err)
				}
			}
			if eng.Len() != pending {
				t.Fatalf("rejected targets scheduled %d events", eng.Len()-pending)
			}

			if tc.alias != tc.canonical {
				mustOK(t, inj.Inject(tc.alias, sim.DownFault(), eng.Now()+eventsim.Microsecond))
				cl.Run(eng.Now() + 2*eventsim.Microsecond)
				want := []sim.ActiveFault{{Target: tc.canonical, Fault: sim.DownFault()}}
				if got := inj.ActiveFaults(); !reflect.DeepEqual(got, want) {
					t.Fatalf("fault on alias %v listed as %v, want %v", tc.alias, got, want)
				}
				mustOK(t, inj.Recover(tc.canonical, eng.Now()+eventsim.Microsecond))
				cl.Run(eng.Now() + 2*eventsim.Microsecond)
				if got := inj.ActiveFaults(); got != nil {
					t.Fatalf("recovery under the canonical name left %v", got)
				}
			}

			links := inj.Links()
			if len(links) != tc.cables {
				t.Fatalf("universe = %d links, want %d cables", len(links), tc.cables)
			}
			if tc.orderAt > 0 && links[tc.orderAt] != tc.orderID {
				t.Fatalf("links[%d] = %v, want %v", tc.orderAt, links[tc.orderAt], tc.orderID)
			}
			seen := map[sim.Target]bool{}
			for _, l := range links {
				if seen[l] {
					t.Fatalf("duplicate canonical link %v", l)
				}
				seen[l] = true
				mustOK(t, inj.Inject(l, sim.DownFault(), eventsim.Millisecond))
				mustOK(t, inj.Recover(l, 2*eventsim.Millisecond))
			}
			if seen[tc.alias] && tc.alias != tc.canonical {
				t.Fatalf("alias %v enumerated beside its canonical name", tc.alias)
			}
		})
	}
}

// Every fabric carries its fault table from construction: a freshly built
// cluster hands out the injector over the documented Links() universe, and
// a fault-free run leaves it idle — nothing active, lost or stranded.
func TestFaultTableAlwaysPresent(t *testing.T) {
	// Default sizing: 16 racks × 4 uplinks (hybrid RotorNet diverts one);
	// the degree-4 expander has half as many cables as cable ends; k=8,
	// F=3 Clos as in TestLinksUniverses.
	for _, tc := range []struct {
		kind   opera.Kind
		cables int
	}{
		{opera.KindOpera, 16 * 4},
		{opera.KindExpander, 16 * 4 / 2},
		{opera.KindRotorNet, 16 * 4},
		{opera.KindRotorNetHybrid, 16 * 3},
		{opera.KindFoldedClos, 32*2 + 16*4},
	} {
		t.Run(tc.kind.String(), func(t *testing.T) {
			cl := newCluster(t, tc.kind)
			inj := cl.Network().Faults()
			if inj == nil || inj != cl.Faults() {
				t.Fatalf("Network.Faults() = %p, Cluster.Faults() = %p: want the one table", inj, cl.Faults())
			}
			if got := len(inj.Links()); got != tc.cables {
				t.Fatalf("universe = %d links, want %d cables", got, tc.cables)
			}
			n := cl.NumHosts()
			for i := 0; i < 8; i++ {
				spec := workload.FlowSpec{Src: i, Dst: (i + n/2) % n, Bytes: 30_000}
				cl.AddFlow(spec)
				cl.AddBulkFlow(spec)
			}
			if !cl.RunUntilDone(200 * eventsim.Millisecond) {
				done, total := cl.Metrics().DoneCount()
				t.Fatalf("only %d/%d flows finished", done, total)
			}
			if got := inj.ActiveFaults(); len(got) != 0 {
				t.Errorf("fault-free run lists active faults: %v", got)
			}
			if inj.Lost != 0 || inj.StrandedBytes() != 0 {
				t.Errorf("fault-free run: Lost = %d, StrandedBytes = %d, want 0, 0", inj.Lost, inj.StrandedBytes())
			}
		})
	}
}

// Inject validates synchronously: bad descriptors, negative times and gray
// faults on non-link targets are errors before anything schedules (bad
// coordinates are TestLinksUniverses').
func TestInjectValidation(t *testing.T) {
	_, fs := failureTestbed(t)
	cases := []struct {
		name string
		err  error
	}{
		{"bad-lossy-rate", fs.Inject(sim.FlatLink(0, 0), sim.LossyFault(1.5), 0)},
		{"bad-degraded-frac", fs.Inject(sim.FlatLink(0, 0), sim.DegradedFault(1.0), 0)},
		{"bad-flap-phase", fs.Inject(sim.FlatLink(0, 0), sim.FlappingFault(0, eventsim.Millisecond), 0)},
		{"negative-time", fs.Inject(sim.FlatLink(0, 0), sim.DownFault(), -1)},
		{"gray-on-tor", fs.Inject(sim.ToRTarget(0), sim.LossyFault(0.1), 0)},
		{"gray-on-switch", fs.Inject(sim.SwitchTarget(0), sim.DegradedFault(0.5), 0)},
	}
	for _, tc := range cases {
		if tc.err == nil {
			t.Errorf("%s: Inject succeeded, want error", tc.name)
		}
	}
}

// Flat Tier-0 coordinates normalize onto the Clos ToR-uplink tier: a
// flat injection can be recovered through its explicit tier-1 name (they
// are the same target), and traffic flows normally afterwards.
func TestClosFlatCoordinateNormalization(t *testing.T) {
	cl := newCluster(t, opera.KindFoldedClos)
	inj := cl.Faults()
	if err := inj.Inject(sim.FlatLink(2, 1), sim.DownFault(), eventsim.Microsecond); err != nil {
		t.Fatal(err)
	}
	explicit := sim.Target{Kind: sim.TargetLink, Tier: sim.ClosTierToR, Switch: 2, Port: 1}
	if err := inj.Recover(explicit, 2*eventsim.Microsecond); err != nil {
		t.Fatal(err)
	}
	d := cl.HostsPerRack()
	for i := 0; i < d; i++ {
		cl.AddFlow(workload.FlowSpec{
			Src: 2*d + i, Dst: (9*d + i) % cl.NumHosts(), Bytes: 20_000,
			Arrival: 10 * eventsim.Microsecond,
		})
	}
	if !cl.RunUntilDone(500 * eventsim.Millisecond) {
		done, total := cl.Metrics().DoneCount()
		t.Fatalf("only %d/%d flows after normalized fail+recover", done, total)
	}
}

func mustOK(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}
