package telemetry

import (
	"math"
	"testing"
)

func TestWindowRetainsTrailingBins(t *testing.T) {
	const n = windowBins + 6
	w := newWindow()
	for i := 0; i < n; i++ {
		w.Record(float64(i)*windowBin, float64(i+1)) // bin i gets i+1
	}
	if w.Total() != n*(n+1)/2 {
		t.Fatalf("Total = %v, want %d (exact, including rotated-out bins)", w.Total(), n*(n+1)/2)
	}
	first, rates := w.Rates()
	if first != 6 || len(rates) != windowBins {
		t.Fatalf("Rates window = bin %d × %d, want 6 × %d", first, len(rates), windowBins)
	}
	// Bins 6..n-1 hold 7..n; rates divide by the 1 ms width.
	for i, r := range rates {
		if want := float64(i+7) * 1000; math.Abs(r-want) > 1e-9 {
			t.Fatalf("rate[%d] = %v, want %v", i, r, want)
		}
	}
	if got, want := w.WindowTotal(), float64(n*(n+1)/2-21); got != want {
		t.Fatalf("WindowTotal = %v, want %v", got, want)
	}
}

func TestWindowGapZeroesSkippedBins(t *testing.T) {
	w := newWindow()
	w.Record(0, 5)
	w.Record(0.002, 3) // skips bin 1
	_, rates := w.Rates()
	if len(rates) != 3 || rates[0] != 5000 || rates[1] != 0 || rates[2] != 3000 {
		t.Fatalf("rates = %v, want [5000 0 3000]", rates)
	}
	// A gap wider than the whole window leaves only zeros behind it.
	w.Record(1.0, 7)
	first, rates := w.Rates()
	if first != 1000-windowBins+1 || len(rates) != windowBins {
		t.Fatalf("post-gap window = bin %d × %d", first, len(rates))
	}
	for i, r := range rates {
		want := 0.0
		if i == windowBins-1 {
			want = 7000
		}
		if r != want {
			t.Fatalf("post-gap rate[%d] = %v, want %v", i, r, want)
		}
	}
	if w.Total() != 15 {
		t.Fatalf("Total = %v, want 15", w.Total())
	}
}

func TestWindowEmptyAndPanics(t *testing.T) {
	w := newWindow()
	if first, rates := w.Rates(); first != 0 || rates != nil {
		t.Fatal("empty window should report no rates")
	}
	if w.WindowTotal() != 0 {
		t.Fatal("empty window total should be 0")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("negative time should panic")
			}
		}()
		w.Record(-1, 1)
	}()
	w.Record(1.0, 1)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("recording below the trailing window should panic")
			}
		}()
		w.Record(0.5, 1) // bin 500 << head 1000 − 128
	}()
}
