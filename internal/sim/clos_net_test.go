package sim

import (
	"math/rand"
	"testing"
)

// sprayLive against its contract: one Intn(live) draw selecting the k-th
// live entry. With every cable up that is Intn(len) — the index the
// fault-unaware spray used to draw from the same generator state — with
// cables down it never lands on a dead one, and with none live it returns
// -1 without drawing.
func TestSprayLive(t *testing.T) {
	cases := []struct {
		name   string
		usable []bool
		live   []int // indices of the live entries, ascending
	}{
		{"all-up", []bool{true, true, true, true}, []int{0, 1, 2, 3}},
		{"one-up", []bool{true}, []int{0}},
		{"first-down", []bool{false, true, true, true}, []int{1, 2, 3}},
		{"holes", []bool{true, false, false, true, false, true}, []int{0, 3, 5}},
		{"last-only", []bool{false, false, true}, []int{2}},
		{"none", []bool{false, false}, nil},
		{"empty", nil, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, ref := rand.New(rand.NewSource(7)), rand.New(rand.NewSource(7))
			for i := 0; i < 200; i++ {
				want := -1
				if len(tc.live) > 0 {
					want = tc.live[ref.Intn(len(tc.live))]
				}
				if idx := sprayLive(tc.usable, got); idx != want {
					t.Fatalf("draw %d: index %d, want %d", i, idx, want)
				}
			}
			if got.Int63() != ref.Int63() {
				t.Fatal("sprayLive consumed a different number of draws than one Intn(live) per call")
			}
		})
	}
}
