package obs_test

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"github.com/opera-net/opera/internal/eventsim"
	"github.com/opera-net/opera/internal/obs"
	"github.com/opera-net/opera/scenario"
)

// TestStatusGolden pins the /status JSON of the telemetry views — a
// finished run's Snapshot.Classes and Snapshot.Tags, and the
// SweepStatus.Quantiles a tracker pools from the run's collector blob —
// against testdata/status.golden. wall_time is left out: it is the one
// field that is not a function of the run. Regenerate with
// UPDATE_GOLDEN=1 go test ./internal/obs/ -run TestStatusGolden and
// review the diff.
func TestStatusGolden(t *testing.T) {
	sc, err := scenario.Spec{
		Name:      "status-golden",
		Network:   "opera",
		Seed:      5,
		Retention: scenario.RetentionSpec{Sketch: true},
		Sources: []scenario.SourceSpec{
			{Type: "shuffle", Participants: 8, FlowBytes: 30_000, Bulk: true, Tag: "shuffle"},
			{Type: "shuffle", Participants: 8, FlowBytes: 2_000, Stagger: 50 * eventsim.Microsecond, Tag: "mice"},
		},
		Duration: 1000 * eventsim.Millisecond,
	}.Scenario()
	if err != nil {
		t.Fatal(err)
	}
	cl, res := scenario.Collect(sc)
	if res.Err != "" || !res.Completed {
		t.Fatalf("run: completed=%v err=%q", res.Completed, res.Err)
	}
	snap := obs.Capture(cl)
	blob, err := cl.Metrics().Telemetry().MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewSweepTracker()
	tr.SweepStarted(1, 1, 0)
	tr.ResultDelivered(0, res, blob)
	data, _ := tr.StatusSnapshot()

	got, err := json.MarshalIndent(struct {
		Classes   []obs.ClassQuantiles `json:"classes"`
		Tags      []obs.TagCounts      `json:"tags"`
		Quantiles []obs.ClassQuantiles `json:"quantiles"`
	}{snap.Classes, snap.Tags, data.(*obs.SweepStatus).Quantiles}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')

	golden := filepath.Join("testdata", "status.golden")
	if os.Getenv("UPDATE_GOLDEN") == "1" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", golden, len(got))
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden (regenerate with UPDATE_GOLDEN=1): %v", err)
	}
	if string(got) != string(want) {
		t.Fatalf("/status telemetry views drifted from %s\n--- got ---\n%s--- want ---\n%s", golden, got, want)
	}
}
