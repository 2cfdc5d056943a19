package sweep

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/opera-net/opera/internal/telemetry"
)

// TestTablesGolden pins the CSV tables Tables renders for testGrid —
// sweep_results, sweep_cells and sweep_telemetry — byte-for-byte against
// testdata/tables.golden, so a change to how a Result or a pooled
// collector is summarized cannot move a published sweep column unnoticed.
// Regenerate with UPDATE_GOLDEN=1 go test ./internal/sweep/ -run
// TestTablesGolden and review the diff.
func TestTablesGolden(t *testing.T) {
	g := testGrid()
	specs, _, err := g.Expand()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := RunLocal(context.Background(), specs, 0)
	if err != nil {
		t.Fatal(err)
	}
	got := mustCSV(t, g, rep)

	golden := filepath.Join("testdata", "tables.golden")
	if os.Getenv("UPDATE_GOLDEN") == "1" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", golden, len(got))
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden (regenerate with UPDATE_GOLDEN=1): %v", err)
	}
	if got != string(want) {
		t.Fatalf("sweep tables drifted from %s\n--- got ---\n%s--- want ---\n%s", golden, got, want)
	}
}

// TestTablesRejectsForeignSketchAlpha: a collector blob that fails to
// decode fails Tables with an error naming the cell, instead of pooling
// wrongly. A sketch at another alpha than its collector's can be written
// only in the version-1 format, so the bad blobs are one labelled version
// 1 and one truncated.
func TestTablesRejectsForeignSketchAlpha(t *testing.T) {
	g := testGrid()
	specs, cells, err := g.Expand()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := RunLocal(context.Background(), specs, 0)
	if err != nil {
		t.Fatal(err)
	}
	good := rep.Collectors[0]
	v1 := append([]byte{}, good...)
	v1[1] = 1 // the version byte
	for _, tc := range []struct {
		name string
		blob []byte
		want error
	}{
		{"version 1", v1, telemetry.ErrCodecVersion},
		{"truncated", good[:len(good)-1], telemetry.ErrCorrupt},
	} {
		rep.Collectors[0] = tc.blob
		_, err = Tables(g, specs, cells, rep)
		if !errors.Is(err, tc.want) || !strings.Contains(err.Error(), "cell opera/0.05") {
			t.Errorf("%s: Tables = %v, want %v naming cell opera/0.05", tc.name, err, tc.want)
		}
	}
}
