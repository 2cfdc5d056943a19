package sweep

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"github.com/opera-net/opera/scenario"
)

// recordSink records every progress event as one line, in callback order.
type recordSink struct {
	mu     sync.Mutex
	events []string
}

func (r *recordSink) add(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.events = append(r.events, fmt.Sprintf(format, args...))
}

func (r *recordSink) SweepStarted(specs, workers, shards int) {
	r.add("started specs=%d workers=%d shards=%d", specs, workers, shards)
}

func (r *recordSink) ShardDispatched(round, shard int, indices []int) {
	r.add("dispatched round=%d shard=%d n=%d", round, shard, len(indices))
}

func (r *recordSink) ShardDone(round, shard int, indices []int, err error) {
	r.add("done round=%d shard=%d n=%d err=%v", round, shard, len(indices), err != nil)
}

func (r *recordSink) ResultDelivered(index int, res scenario.Result, collector []byte) {
	r.add("result index=%d", index)
}

func (r *recordSink) SweepDone(rounds int, failed []int) {
	r.add("finished rounds=%d failed=%d", rounds, len(failed))
}

func (r *recordSink) snapshot() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.events...)
}

// TestProgressRetryOrdering pins the event sequence through a worker
// crash: one shard per round, the round-0 worker dies after two frames,
// so the retry round re-dispatches exactly the missing indices — and the
// sink sees dispatch → partial delivery → failed done → retry-dispatch →
// remaining delivery → clean done → finished, in that order. The same
// run's LogProgress output must carry the retry-dispatch line.
func TestProgressRetryOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns packet-level worker processes")
	}
	g := testGrid()
	specs, _, err := g.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 4 {
		t.Fatalf("test grid has %d specs, want 4", len(specs))
	}

	command, fired := crashOnce(2)
	rec := &recordSink{}
	var logBuf bytes.Buffer
	rep, err := Run(context.Background(), specs, Options{
		Workers:  1,
		Shards:   1,
		Retries:  2,
		Command:  command,
		Progress: MultiProgress(rec, LogProgress(&logBuf)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !fired.Load() {
		t.Fatal("crash injection never fired")
	}
	if len(rep.Failed) > 0 {
		t.Fatalf("failed cells after retry: %v", rep.Failed)
	}
	if rep.Rounds != 2 {
		t.Fatalf("rounds = %d, want 2", rep.Rounds)
	}

	want := []string{
		"started specs=4 workers=1 shards=1",
		"dispatched round=0 shard=0 n=4",
		"result index=0",
		"result index=1",
		"done round=0 shard=0 n=4 err=true",
		"dispatched round=1 shard=0 n=2",
		"result index=2",
		"result index=3",
		"done round=1 shard=0 n=2 err=false",
		"finished rounds=2 failed=0",
	}
	got := rec.snapshot()
	if len(got) != len(want) {
		t.Fatalf("event count = %d, want %d:\n%s", len(got), len(want), strings.Join(got, "\n"))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event[%d] = %q, want %q\nfull sequence:\n%s",
				i, got[i], want[i], strings.Join(got, "\n"))
		}
	}

	log := logBuf.String()
	for _, needle := range []string{"sweep started", "dispatch round 0", "shard failed round 0", "retry-dispatch round 1", "shard done round 1", "all cells delivered"} {
		if !strings.Contains(log, needle) {
			t.Fatalf("log output missing %q:\n%s", needle, log)
		}
	}
}

// TestRunLocalProgress covers the in-process path: per-result delivery
// and completion events with no shard traffic.
func TestRunLocalProgress(t *testing.T) {
	g := testGrid()
	specs, _, err := g.Expand()
	if err != nil {
		t.Fatal(err)
	}
	rec := &recordSink{}
	rep, err := RunLocalProgress(context.Background(), specs, 1, rec)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Failed) > 0 {
		t.Fatalf("failed cells: %v", rep.Failed)
	}
	got := rec.snapshot()
	want := []string{
		"started specs=4 workers=1 shards=0",
		"result index=0",
		"result index=1",
		"result index=2",
		"result index=3",
		"finished rounds=1 failed=0",
	}
	if len(got) != len(want) {
		t.Fatalf("event count = %d, want %d:\n%s", len(got), len(want), strings.Join(got, "\n"))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}

// A cancelled in-process sweep lists the cells it never ran in
// Report.Failed, delivers nothing for them, and still delivers a cell
// that does not resolve.
func TestRunLocalCancelled(t *testing.T) {
	specs, _, err := testGrid().Expand()
	if err != nil {
		t.Fatal(err)
	}
	specs[1].Network = "torus"
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rec := &recordSink{}
	rep, err := RunLocalProgress(ctx, specs, 1, rec)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if want := []int{0, 2, 3}; !reflect.DeepEqual(rep.Failed, want) {
		t.Fatalf("failed = %v, want %v", rep.Failed, want)
	}
	for i, r := range rep.Results {
		if r.Err == "" || r.Name != specs[i].Name {
			t.Errorf("result %d = %+v, want the spec's name and an error", i, r)
		}
	}
	want := []string{"started specs=4 workers=1 shards=0", "result index=1", "finished rounds=1 failed=3"}
	if got := rec.snapshot(); !reflect.DeepEqual(got, want) {
		t.Fatalf("events = %q, want %q", got, want)
	}
}
