package eventsim

import (
	"cmp"
	"slices"
	"testing"
)

// TestTieShuffleReordersOnlyTies runs the seeded timer workload under the
// tie-order oracle: every seed fires exactly the heap's callbacks at
// exactly their times, in nondecreasing time, and reproducibly; only the
// order within one instant may differ, and for some seed it does.
func TestTieShuffleReordersOnlyTies(t *testing.T) {
	byTimeThenID := func(a, b fireRec) int {
		return cmp.Or(cmp.Compare(a.at, b.at), cmp.Compare(a.id, b.id))
	}
	reordered := false
	for seed := int64(1); seed <= 20; seed++ {
		fifo := runSchedWorkload(NewHeapScheduler, seed)
		mk := func() Scheduler { return NewTieShuffleScheduler(seed) }
		got := runSchedWorkload(mk, seed)
		if again := runSchedWorkload(mk, seed); !slices.Equal(got, again) {
			t.Fatalf("seed %d: two runs fired differently", seed)
		}
		for i := 1; i < len(got); i++ {
			if got[i].at < got[i-1].at {
				t.Fatalf("seed %d: fire %d at %d after one at %d", seed, i, got[i].at, got[i-1].at)
			}
		}
		reordered = reordered || !slices.Equal(got, fifo)
		slices.SortStableFunc(got, byTimeThenID)
		slices.SortStableFunc(fifo, byTimeThenID)
		if !slices.Equal(got, fifo) {
			t.Fatalf("seed %d: the oracle fired other callbacks or times than the heap", seed)
		}
	}
	if !reordered {
		t.Error("no seed reordered a tie: the oracle is the FIFO order")
	}
}

// Equal-time events come out in their tie keys' order, which is a fixed
// permutation of scheduling order per seed; SchedStats counts all of them
// as overflow, and PopDue stops at the deadline.
func TestTieShuffleServesOneInstantByKey(t *testing.T) {
	s := NewTieShuffleScheduler(7).(*tieShuffle)
	var want []*Event
	for seq := uint64(0); seq < 16; seq++ {
		ev := &Event{at: 5, seq: seq}
		s.PushFixed(ev, 0)
		want = append(want, ev)
	}
	late := &Event{at: 6, seq: 16}
	s.Push(late)
	if st := s.SchedStats(); st.Overflow != 17 || s.Len() != 17 {
		t.Fatalf("Len %d, SchedStats %+v; want 17 and 17 overflow", s.Len(), st)
	}
	slices.SortFunc(want, func(a, b *Event) int { return cmp.Compare(s.mix(a.seq), s.mix(b.seq)) })
	if slices.Equal(want, slices.SortedFunc(slices.Values(want), func(a, b *Event) int { return cmp.Compare(a.seq, b.seq) })) {
		t.Fatal("seed 7 keeps 16 ties in scheduling order")
	}
	for i, w := range want {
		if ev := s.Peek(); ev != w {
			t.Fatalf("peek %d: seq %d, want seq %d", i, ev.seq, w.seq)
		}
		if ev := s.PopDue(5); ev != w {
			t.Fatalf("pop %d: seq %d, want seq %d", i, ev.seq, w.seq)
		}
	}
	if ev := s.PopDue(5); ev != nil {
		t.Fatalf("PopDue(5) returned seq %d at %d", ev.seq, ev.at)
	}
	if s.Peek() != late || s.PopDue(MaxTime) != late || s.Len() != 0 || s.Peek() != nil {
		t.Fatal("the later event was not served last")
	}
}
