package telemetry

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
)

// TestSketchMergeAlphaMismatchPanics pins the diagnostic for merging
// sketches with different relative-error bounds, a programming error:
// Merge panics with a message naming both alphas and leaves the receiver
// untouched.
func TestSketchMergeAlphaMismatchPanics(t *testing.T) {
	a := NewSketch(0.01)
	b := NewSketch(0.02)
	b.Add(1)

	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("Merge with mismatched alpha did not panic")
		}
		msg := fmt.Sprint(r)
		if !strings.Contains(msg, "0.01") || !strings.Contains(msg, "0.02") {
			t.Fatalf("diagnostic %q does not name both alphas", msg)
		}
		if a.count != 0 {
			t.Fatal("failed Merge mutated the receiver")
		}
	}()
	a.Merge(b)
}

// TestWindowMergeMatchesInterleavedRecording: merging per-shard windows
// must equal recording every (time, amount) pair into one window, for any
// split — the insertion-order-independence property sharding needs.
func TestWindowMergeMatchesInterleavedRecording(t *testing.T) {
	type rec struct{ t, v float64 }
	var recs []rec
	for i := 0; i < 400; i++ {
		recs = append(recs, rec{t: float64(i) * 0.0004, v: float64(i%97 + 1)})
	}

	one := newWindow()
	for _, r := range recs {
		one.Record(r.t, r.v)
	}

	a, b := newWindow(), newWindow()
	for i, r := range recs {
		if i%3 == 0 {
			a.Record(r.t, r.v)
		} else {
			b.Record(r.t, r.v)
		}
	}
	merged := newWindow()
	merged.Merge(&a)
	merged.Merge(&b)
	if !reflect.DeepEqual(merged, one) {
		t.Fatalf("merged shards differ from single-feed window:\nmerged %+v\nsingle %+v", merged, one)
	}

	// Reverse merge order: identical (commutativity on this input).
	rev := newWindow()
	rev.Merge(&b)
	rev.Merge(&a)
	if !reflect.DeepEqual(rev, one) {
		t.Fatalf("reverse merge order differs from single-feed window")
	}
}

// TestWindowMergeAssociative checks tree-shape independence on integral
// amounts, including shards whose heads differ by more than a whole span
// (forcing rotation drops during the merge).
func TestWindowMergeAssociative(t *testing.T) {
	mk := func(start float64, n int) *Window {
		w := newWindow()
		for i := 0; i < n; i++ {
			w.Record(start+float64(i)*0.0007, float64(i%13+1))
		}
		return &w
	}
	ws := []*Window{mk(0, 200), mk(0.200, 40), mk(0.005, 10)}

	leftFold := newWindow()
	for _, w := range ws {
		leftFold.Merge(w)
	}
	// ((b ⊔ c) ⊔ a)
	other := newWindow()
	for _, w := range []*Window{ws[1], ws[2], ws[0]} {
		other.Merge(w)
	}
	if !reflect.DeepEqual(other, leftFold) {
		t.Fatalf("merge is order-dependent:\n%+v\n%+v", other, leftFold)
	}
	if got, want := leftFold.Total(), ws[0].Total()+ws[1].Total()+ws[2].Total(); got != want {
		t.Fatalf("merged total %v, want %v", got, want)
	}
}

func TestOptsValidate(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts Opts
		ok   bool
	}{
		{"zero-defaults", Opts{}, true},
		{"typical", Opts{Alpha: 0.05}, true},
		{"alpha-negative", Opts{Alpha: -0.01}, false},
		{"alpha-one", Opts{Alpha: 1}, false},
		{"alpha-nan", Opts{Alpha: math.NaN()}, false},
	} {
		err := tc.opts.Validate()
		if (err == nil) != tc.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

// TestNewCollectorRejectsNaNAlpha: before Validate existed, a NaN alpha
// slipped through NewSketch's range check (NaN compares false against
// every bound) and produced NaN quantiles downstream. Now it fails at
// construction with a clear message.
func TestNewCollectorRejectsNaNAlpha(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewCollector with NaN alpha did not panic")
		}
	}()
	NewCollector(Opts{Alpha: math.NaN()}, 2)
}

func TestCollectorMergeMismatch(t *testing.T) {
	a := NewCollector(Opts{}, 2)
	if err := a.Merge(NewCollector(Opts{Alpha: 0.05}, 2)); err == nil {
		t.Fatal("merging collectors with different alphas succeeded")
	}
	if err := a.Merge(NewCollector(Opts{}, 3)); err == nil {
		t.Fatal("merging collectors with different class counts succeeded")
	}
	if err := a.Merge(nil); err != nil {
		t.Fatalf("nil merge: %v", err)
	}
}
