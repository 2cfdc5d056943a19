package opera_test

import (
	"testing"

	opera "github.com/opera-net/opera"
	"github.com/opera-net/opera/internal/eventsim"
	"github.com/opera-net/opera/internal/sim"
	"github.com/opera-net/opera/internal/workload"
)

// runShuffle drives a small shuffle (16 participants, arrivals staggered
// over 1 ms to keep NDP incast mild) to completion and summarizes it.
func runShuffle(t *testing.T, cl *opera.Cluster) (done, total int, meanUs, p99Us float64) {
	t.Helper()
	cl.AddFlows(workload.Shuffle(16, 30_000, eventsim.Millisecond, 7))
	if !cl.RunUntilDone(4000 * eventsim.Millisecond) {
		d, n := cl.Metrics().DoneCount()
		t.Fatalf("%v: only %d/%d flows completed", cl.Kind(), d, n)
	}
	cl.Stop()
	s := cl.Metrics().FCTSample(func(f *sim.Flow) bool { return f.Done })
	done, total = cl.Metrics().DoneCount()
	return done, total, s.Mean(), s.P99()
}

// Every registered Kind must build from New's documented defaults (16
// racks × 4 hosts, 4 uplinks, Clos k=8 F=3) and produce FCT metrics
// identical to a cluster with every size spelled out — including through
// WithClos's keep-the-current-value zero arguments. (The name dates from
// when the defaulted side was the since-deleted config-struct constructor.)
func TestOptionsMatchLegacyConfig(t *testing.T) {
	kinds := []opera.Kind{
		opera.KindOpera, opera.KindExpander, opera.KindFoldedClos,
		opera.KindRotorNet, opera.KindRotorNetHybrid,
	}
	for _, k := range kinds {
		k := k
		t.Run(k.String(), func(t *testing.T) {
			legacy, err := opera.New(k,
				opera.WithClos(0, 3), opera.WithClos(8, 0),
				opera.WithSeed(3),
			)
			if err != nil {
				t.Fatalf("New over defaults: %v", err)
			}
			modern, err := opera.New(k,
				opera.WithRacks(16),
				opera.WithHostsPerRack(4),
				opera.WithUplinks(4),
				opera.WithClos(8, 3),
				opera.WithSeed(3),
			)
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			if legacy.NumHosts() != modern.NumHosts() || legacy.HostsPerRack() != modern.HostsPerRack() {
				t.Fatalf("shape mismatch: legacy %d×%d, modern %d×%d",
					legacy.NumHosts(), legacy.HostsPerRack(), modern.NumHosts(), modern.HostsPerRack())
			}
			ld, lt, lMean, lP99 := runShuffle(t, legacy)
			md, mt, mMean, mP99 := runShuffle(t, modern)
			if ld != md || lt != mt || lMean != mMean || lP99 != mP99 {
				t.Fatalf("metrics diverge: legacy done=%d/%d mean=%v p99=%v, modern done=%d/%d mean=%v p99=%v",
					ld, lt, lMean, lP99, md, mt, mMean, mP99)
			}
		})
	}
}

// The dispatch table must route classes to the transports the paper gives
// each architecture.
func TestTransportDispatch(t *testing.T) {
	cases := []struct {
		kind opera.Kind
		// sameTransport reports whether both classes share one transport.
		sameTransport bool
	}{
		{opera.KindOpera, false},
		{opera.KindExpander, true},
		{opera.KindFoldedClos, true},
		{opera.KindRotorNetHybrid, false},
	}
	for _, tc := range cases {
		cl, err := opera.New(tc.kind)
		if err != nil {
			t.Fatalf("%v: %v", tc.kind, err)
		}
		ll := cl.Transport(sim.ClassLowLatency)
		bulk := cl.Transport(sim.ClassBulk)
		if ll == nil || bulk == nil {
			t.Fatalf("%v: missing transport (lowlat=%v bulk=%v)", tc.kind, ll, bulk)
		}
		if (ll == bulk) != tc.sameTransport {
			t.Fatalf("%v: sameTransport=%v, want %v", tc.kind, ll == bulk, tc.sameTransport)
		}
	}
}

// The underlying fabric is reachable through the Network interface, and
// circuit fabrics upgrade to CircuitNetwork.
func TestNetworkInterface(t *testing.T) {
	for _, k := range []opera.Kind{opera.KindOpera, opera.KindExpander, opera.KindRotorNet} {
		cl, err := opera.New(k)
		if err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		n := cl.Network()
		if n.Kind() != k.String() {
			t.Fatalf("network kind %q, want %q", n.Kind(), k.String())
		}
		if n.NumRacks() != 16 || n.HostsPerRack() != 4 {
			t.Fatalf("%v: shape %d×%d", k, n.NumRacks(), n.HostsPerRack())
		}
		_, circuits := n.(sim.CircuitNetwork)
		wantCircuits := k == opera.KindOpera || k == opera.KindRotorNet
		if circuits != wantCircuits {
			t.Fatalf("%v: CircuitNetwork=%v, want %v", k, circuits, wantCircuits)
		}
	}
}

// RunUntilDone must stop polling its 100 µs grid once the event queue
// drains: with the circuit clock stopped, a stranded bulk flow can never
// finish, and the call must give up as soon as in-flight events die out
// instead of spinning to the deadline.
func TestRunUntilDoneEarlyExit(t *testing.T) {
	cl, err := opera.New(opera.KindRotorNet)
	if err != nil {
		t.Fatal(err)
	}
	f := cl.AddFlow(workload.FlowSpec{Src: 0, Dst: cl.NumHosts() - 1, Bytes: 50_000_000})
	cl.Stop() // halt the slot clock: the bulk queue can never drain
	deadline := 1_000_000 * eventsim.Millisecond
	if cl.RunUntilDone(deadline) {
		t.Fatal("stranded flow reported complete")
	}
	if f.Done {
		t.Fatal("flow done with no circuits")
	}
	// The queue drained within a few slots; the engine must have stopped
	// far short of the deadline rather than polling to it.
	if now := cl.Engine().Now(); now > deadline/100 {
		t.Fatalf("engine polled to %v of %v; early exit failed", now, deadline)
	}
}
