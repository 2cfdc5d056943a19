package scenario

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"github.com/opera-net/opera/internal/eventsim"
	"github.com/opera-net/opera/internal/sim"
)

// eventForms is the fault-schedule grammar as a table: each action name
// maps to the EventSpec it builds and, one letter per ':'-separated
// argument, the field each argument fills — t, s, p: Target.Tier, .Switch,
// .Port (ints); i: Target.ID (int); f: Fraction; r: Fault.Rate;
// d: Fault.RateFraction (floats); U, D: Fault.Up, .Down (durations).
var eventForms = map[string]struct {
	op     string
	target sim.TargetKind
	fault  sim.FaultKind
	args   string
}{
	"link":                {"inject", "link", "down", "sp"},
	"tor":                 {"inject", "tor", "down", "i"},
	"switch":              {"inject", "switch", "down", "i"},
	"recover-link":        {"recover", "link", "", "sp"},
	"recover-tor":         {"recover", "tor", "", "i"},
	"recover-switch":      {"recover", "switch", "", "i"},
	"random-links":        {"fail-random-links", "", "", "f"},
	"lossy":               {"inject", "link", "lossy", "spr"},
	"degraded":            {"inject", "link", "degraded", "spd"},
	"flap":                {"inject", "link", "flapping", "spUD"},
	"tier-link":           {"inject", "link", "down", "tsp"},
	"recover-tier-link":   {"recover", "link", "", "tsp"},
	"tier-switch":         {"inject", "switch", "down", "ti"},
	"recover-tier-switch": {"recover", "switch", "", "ti"},
}

// ParseEvents parses a textual fault schedule ("500us:link:3:2,2ms:switch:1"
// — opera-sim's -fail-at) into EventSpecs. Each comma-separated entry is
// TIME:ACTION:ARGS with ACTION one of link:R:S, tor:R, switch:S,
// recover-link:R:S, recover-tor:R, recover-switch:S, random-links:FRAC,
// the gray failures lossy:R:S:RATE, degraded:R:S:FRAC and
// flap:R:S:UP:DOWN (durations like 200us), or the tier-addressed forms
// tier-link:T:S:P, recover-tier-link:T:S:P, tier-switch:T:S and
// recover-tier-switch:T:S for multi-tier fabrics (folded Clos: tier 1 =
// ToR uplinks, 2 = agg uplinks/switches, 3 = core switches). Every
// returned spec passes Spec.Scenario's event check: fault parameters are
// range-checked here, coordinates by the fabric at run time.
func ParseEvents(s string) ([]EventSpec, error) {
	if s == "" {
		return nil, nil
	}
	var out []EventSpec
	for _, item := range strings.Split(s, ",") {
		parts := strings.Split(strings.TrimSpace(item), ":")
		if len(parts) < 2 {
			return nil, fmt.Errorf("fault %q: want TIME:ACTION[:ARGS]", item)
		}
		at, err := parseTime(parts[0])
		if err != nil {
			return nil, fmt.Errorf("fault %q: %v", item, err)
		}
		form, ok := eventForms[parts[1]]
		if !ok {
			return nil, fmt.Errorf("fault %q: unknown action %q", item, parts[1])
		}
		args := parts[2:]
		if len(args) != len(form.args) {
			return nil, fmt.Errorf("fault %q: action %s wants %d arguments, got %d", item, parts[1], len(form.args), len(args))
		}
		es := EventSpec{At: at, Op: form.op, Target: sim.Target{Kind: form.target}, Fault: sim.Fault{Kind: form.fault}}
		for i, field := range form.args {
			switch a := args[i]; field {
			case 't':
				es.Target.Tier, err = strconv.Atoi(a)
			case 's':
				es.Target.Switch, err = strconv.Atoi(a)
			case 'p':
				es.Target.Port, err = strconv.Atoi(a)
			case 'i':
				es.Target.ID, err = strconv.Atoi(a)
			case 'f':
				es.Fraction, err = strconv.ParseFloat(a, 64)
			case 'r':
				es.Fault.Rate, err = strconv.ParseFloat(a, 64)
			case 'd':
				es.Fault.RateFraction, err = strconv.ParseFloat(a, 64)
			case 'U':
				es.Fault.Up, err = parseTime(a)
			case 'D':
				es.Fault.Down, err = parseTime(a)
			}
			if err != nil {
				return nil, fmt.Errorf("fault %q: %v", item, err)
			}
		}
		if err := es.check(); err != nil {
			return nil, fmt.Errorf("fault %q: %v", item, err)
		}
		out = append(out, es)
	}
	return out, nil
}

// parseTime parses a non-negative Go duration ("500us") as virtual time.
func parseTime(s string) (eventsim.Time, error) {
	d, err := time.ParseDuration(s)
	if err != nil {
		return 0, err
	}
	if d < 0 {
		return 0, fmt.Errorf("negative time %v", d)
	}
	return eventsim.Time(d.Nanoseconds()), nil
}
