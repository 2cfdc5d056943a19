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
