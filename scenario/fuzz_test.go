package scenario

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// FuzzParseEvents: the -fail-at grammar never panics, an error never comes
// with a partial schedule, every spec of an accepted schedule passes the
// event check, and an accepted schedule survives a JSON round trip
// unchanged (the sweep's grid files carry it).
func FuzzParseEvents(f *testing.F) {
	var all []string
	for _, row := range eventFormRows {
		f.Add(row.in)
		all = append(all, row.in)
	}
	f.Add(strings.Join(all, ","))
	for _, in := range malformedSchedules {
		f.Add(in)
	}
	f.Fuzz(func(t *testing.T, in string) {
		specs, err := ParseEvents(in)
		if err != nil {
			if specs != nil {
				t.Fatalf("%q: error %v came with a partial schedule %+v", in, err, specs)
			}
			return
		}
		for _, es := range specs {
			if err := es.check(); err != nil {
				t.Fatalf("%q: accepted, but %+v fails the event check: %v", in, es, err)
			}
		}
		data, err := json.Marshal(specs)
		if err != nil {
			t.Fatalf("%q: accepted schedule does not marshal: %v", in, err)
		}
		var back []EventSpec
		if err := json.Unmarshal(data, &back); err != nil || !reflect.DeepEqual(back, specs) {
			t.Fatalf("%q: JSON round trip changed the schedule (%v):\ngot  %+v\nwant %+v", in, err, back, specs)
		}
	})
}

// FuzzSpecJSON: bytes → Spec → Scenario() never panics or hangs, and a spec
// that resolves survives a JSON round trip unchanged. Resolution only — the
// simulation is not run.
func FuzzSpecJSON(f *testing.F) {
	seed := func(sp Spec) {
		if data, err := json.Marshal(sp); err == nil { // NaN and ±Inf have no JSON form
			f.Add(data)
		}
	}
	seed(specErrorBase())
	for _, mutate := range specErrorRows {
		sp := specErrorBase()
		mutate(&sp)
		seed(sp)
	}
	f.Add([]byte(`{"Network":"opera","Duration":1000,"Sources":[{"Type":"poisson","Dist":"websearch","Load":1e300,"Window":1000}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var sp Spec
		if json.Unmarshal(data, &sp) != nil {
			return
		}
		if _, err := sp.Scenario(); err != nil {
			return
		}
		out, err := json.Marshal(sp)
		if err != nil {
			t.Fatalf("resolved spec %+v does not marshal: %v", sp, err)
		}
		var back Spec
		if err := json.Unmarshal(out, &back); err != nil {
			t.Fatalf("re-marshalled spec %s does not parse: %v", out, err)
		}
		if !reflect.DeepEqual(back, sp) {
			t.Fatalf("JSON round trip changed a resolved spec:\ngot  %+v\nwant %+v", back, sp)
		}
	})
}
