package scenario

import (
	"reflect"
	"testing"

	"github.com/opera-net/opera/internal/eventsim"
	"github.com/opera-net/opera/internal/sim"
)

// eventFormRows is one row per form of the -fail-at grammar with the exact
// EventSpec it compiles to; malformedSchedules must each return an error.
// FuzzParseEvents seeds from both.
var eventFormRows = func() []struct {
	in   string
	want EventSpec
} {
	const us, ms = eventsim.Microsecond, eventsim.Millisecond
	link := func(tier, sw, port int) sim.Target {
		return sim.Target{Kind: "link", Tier: tier, Switch: sw, Port: port}
	}
	down := sim.Fault{Kind: "down"}
	return []struct {
		in   string
		want EventSpec
	}{
		{"500us:link:3:2", EventSpec{At: 500 * us, Op: "inject", Target: link(0, 3, 2), Fault: down}},
		{"1ms:tor:7", EventSpec{At: ms, Op: "inject", Target: sim.Target{Kind: "tor", ID: 7}, Fault: down}},
		{"0s:switch:1", EventSpec{Op: "inject", Target: sim.Target{Kind: "switch", ID: 1}, Fault: down}},
		{"2ms:recover-link:3:2", EventSpec{At: 2 * ms, Op: "recover", Target: link(0, 3, 2)}},
		{"2ms:recover-tor:7", EventSpec{At: 2 * ms, Op: "recover", Target: sim.Target{Kind: "tor", ID: 7}}},
		{"2ms:recover-switch:1", EventSpec{At: 2 * ms, Op: "recover", Target: sim.Target{Kind: "switch", ID: 1}}},
		{"1us:random-links:0.05", EventSpec{At: us, Op: "fail-random-links", Fraction: 0.05}},
		{"1ms:lossy:4:0:0.01", EventSpec{At: ms, Op: "inject", Target: link(0, 4, 0), Fault: sim.Fault{Kind: "lossy", Rate: 0.01}}},
		{"1ms:degraded:4:0:0.5", EventSpec{At: ms, Op: "inject", Target: link(0, 4, 0), Fault: sim.Fault{Kind: "degraded", RateFraction: 0.5}}},
		{"1ms:flap:5:1:200us:100us", EventSpec{At: ms, Op: "inject", Target: link(0, 5, 1),
			Fault: sim.Fault{Kind: "flapping", Up: 200 * us, Down: 100 * us}}},
		{"1ms:tier-link:2:0:3", EventSpec{At: ms, Op: "inject", Target: link(2, 0, 3), Fault: down}},
		{"3ms:recover-tier-link:2:0:3", EventSpec{At: 3 * ms, Op: "recover", Target: link(2, 0, 3)}},
		{"1ms:tier-switch:3:5", EventSpec{At: ms, Op: "inject", Target: sim.Target{Kind: "switch", Tier: 3, ID: 5}, Fault: down}},
		{"3ms:recover-tier-switch:3:5", EventSpec{At: 3 * ms, Op: "recover", Target: sim.Target{Kind: "switch", Tier: 3, ID: 5}}},
	}
}()

var malformedSchedules = []string{
	"500us",                   // no action
	"500us:link:3",            // missing argument
	"500us:link",              // missing arguments
	"500us:link:3:2:1",        // surplus argument
	"1ms:flap:5:1:200us",      // missing duration
	"soon:link:3:2",           // bad time
	"1ms:flap:5:1:200:100us",  // bad duration (no unit)
	"-1ms:link:3:2",           // negative time
	"1ms:flap:5:1:-1ms:1ms",   // negative phase
	"1ms:melt:3:2",            // unknown action
	"1ms:link:three:2",        // non-numeric coordinate
	"1ms:lossy:4:0:NaN",       // NaN rate
	"1ms:lossy:4:0:1.5",       // rate out of range
	"1ms:lossy:4:0:0",         // rate out of range
	"1ms:degraded:4:0:1",      // fraction out of range
	"1ms:random-links:-0.1",   // fraction out of range
	"1ms:random-links:NaN",    // NaN fraction
	"1ms:flap:5:1:0s:1ms",     // zero phase
	"500us:link:3:2,",         // empty entry
	"500us:link:3:2,1ms:melt", // good entry then a bad one
	":",                       // nothing at all
}

// One row per form of the -fail-at grammar, each asserting the exact
// EventSpec it compiles to, then the malformed inputs, which must return
// an error (never panic, never a partial schedule).
func TestParseEvents(t *testing.T) {
	forms := eventFormRows
	if len(forms) != len(eventForms) {
		t.Fatalf("%d rows for %d grammar forms", len(forms), len(eventForms))
	}
	var all string
	var want []EventSpec
	for _, f := range forms {
		got, err := ParseEvents(f.in)
		if err != nil {
			t.Errorf("%q: %v", f.in, err)
			continue
		}
		if !reflect.DeepEqual(got, []EventSpec{f.want}) {
			t.Errorf("%q:\n got %+v\nwant %+v", f.in, got, f.want)
		}
		all += ", " + f.in // entries are trimmed, so ", " separates as well as ","
		want = append(want, f.want)
	}
	if got, err := ParseEvents(all[2:]); err != nil || !reflect.DeepEqual(got, want) {
		t.Errorf("whole schedule: err %v\n got %+v\nwant %+v", err, got, want)
	}
	if got, err := ParseEvents(""); got != nil || err != nil {
		t.Errorf("empty schedule = %v, %v; want nil, nil", got, err)
	}

	for _, in := range malformedSchedules {
		if got, err := ParseEvents(in); err == nil {
			t.Errorf("%q parsed to %+v, want an error", in, got)
		} else if got != nil {
			t.Errorf("%q: error %v came with a partial schedule %+v", in, err, got)
		}
	}
}
