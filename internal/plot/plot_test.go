package plot

import (
	"strings"
	"testing"
)

func TestRenderBasic(t *testing.T) {
	out := Render(Options{Title: "t", Width: 30, Height: 8, XLabel: "hops", YLabel: "cdf"},
		Series{Name: "a", X: []float64{1, 2, 3}, Y: []float64{0.2, 0.6, 1.0}},
		Series{Name: "b", X: []float64{1, 2, 3}, Y: []float64{0.5, 0.9, 1.0}},
	)
	if !strings.Contains(out, "t\n") || !strings.Contains(out, "* a") || !strings.Contains(out, "o b") {
		t.Fatalf("render:\n%s", out)
	}
	if !strings.Contains(out, "x: hops") {
		t.Fatalf("labels missing:\n%s", out)
	}
	// Marker for the max point of series a should appear in the top row
	// region (y=1.0 shared with b's last point).
	lines := strings.Split(out, "\n")
	if len(lines) < 10 {
		t.Fatalf("too few lines: %d", len(lines))
	}
}

func TestRenderLogX(t *testing.T) {
	out := Render(Options{LogX: true, Width: 40, Height: 6},
		Series{Name: "flows", X: []float64{100, 1e4, 1e6, 1e9}, Y: []float64{0.1, 0.5, 0.9, 1}})
	if !strings.Contains(out, "(log)") {
		t.Fatalf("log axis not labelled:\n%s", out)
	}
	// Non-positive x values are skipped, not crashed on.
	out = Render(Options{LogX: true},
		Series{Name: "bad", X: []float64{0, 10}, Y: []float64{0, 1}})
	if out == "" {
		t.Fatal("empty render")
	}
}

func TestRenderEmpty(t *testing.T) {
	if out := Render(Options{}); out != "(no data)\n" {
		t.Fatalf("empty = %q", out)
	}
}

func TestRenderDegenerate(t *testing.T) {
	// Single point: bounds degenerate; must not divide by zero.
	out := Render(Options{}, Series{Name: "p", X: []float64{5}, Y: []float64{0.5}})
	if !strings.Contains(out, "p") {
		t.Fatalf("render:\n%s", out)
	}
}
