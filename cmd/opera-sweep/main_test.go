package main

import (
	"slices"
	"strings"
	"testing"
)

// A grid file decodes into the sweep.Grid its keys name.
func TestParseGrid(t *testing.T) {
	g, err := parseGrid([]byte(`{"networks": ["opera"], "loads": [0.05], "duration_ms": 5}` + "\n"))
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(g.Networks, []string{"opera"}) || !slices.Equal(g.Loads, []float64{0.05}) || g.DurationMs != 5 {
		t.Fatalf("grid = %+v", g)
	}
}

// A key sweep.Grid does not have, or a second value after the grid, is an
// error instead of being dropped: "load" for "loads" would otherwise run
// the default loads.
func TestParseGridRejectsUnknownKeysAndTrailingData(t *testing.T) {
	for _, tc := range []struct{ in, want string }{
		{`{"load": [0.05]}`, `unknown field "load"`},
		{`{"loads": [0.05]} {"loads": [0.1]}`, "trailing data"},
		{`{"loads": [0.05]} x`, "trailing data"},
	} {
		_, err := parseGrid([]byte(tc.in))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("parseGrid(%s) = %v, want an error containing %q", tc.in, err, tc.want)
		}
	}
}

// FuzzParseGrid: bytes → parseGrid → Grid.Expand → every spec's
// Scenario() never panics; what fails, fails with an error. Grids whose
// expansion could pass 10,000 specs are skipped (each of Networks and
// Loads defaults to three entries when empty). Resolution only — nothing
// runs.
func FuzzParseGrid(f *testing.F) {
	f.Add([]byte(`{"networks": ["opera"], "loads": [0.05], "duration_ms": 5}`))
	f.Add([]byte(`{"networks": ["expander", "foldedclos"], "workload": "websearch", "loads": [0.1, 0.25], "scale": "paper", "replicas": 3, "sketch": true, "alpha": 0.02}`))
	f.Add([]byte(`{"networks": ["opera"], "seed": 9, "drain_factor": -1, "max_flow_bytes": -5, "events": [{"At": 1000, "Target": {"Kind": "link", "Switch": 3, "Port": 2}, "Fault": {"Kind": "lossy", "Rate": 0.01}}]}`))
	f.Add([]byte(`{"loads": [1e300], "duration_ms": 1e300, "drain_factor": 9223372036854775807}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := parseGrid(data)
		if err != nil {
			return
		}
		if specs := max(len(g.Networks), 3) * max(len(g.Loads), 3); g.Replicas > 10_000 || specs*max(g.Replicas, 1) > 10_000 {
			return
		}
		specs, _, err := g.Expand()
		if err != nil {
			return
		}
		for _, sp := range specs {
			if _, err := sp.Scenario(); err != nil {
				t.Fatalf("expanded spec %s does not resolve: %v", sp.Name, err)
			}
		}
	})
}
