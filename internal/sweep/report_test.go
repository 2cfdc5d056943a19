package sweep

import (
	"bytes"
	"context"
	"encoding/binary"
	"math"
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

// TestTablesRejectsForeignSketchAlpha: a collector blob whose sketches
// decode cleanly at another alpha than their collector's fails Tables with
// an error naming the cell, instead of panicking in the merge.
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
	rep.Collectors[0] = foreignAlpha(rep.Collectors[0])
	_, err = Tables(g, specs, cells, rep)
	if err == nil || !strings.Contains(err.Error(), "cell opera/0.05") || !strings.Contains(err.Error(), "alpha 0.02") {
		t.Fatalf("Tables = %v, want an error naming cell opera/0.05 and the foreign alpha", err)
	}
}

// foreignAlpha rewrites every sketch's alpha in a default-alpha collector
// blob to 0.02, leaving the collector's own, the eight bytes after its
// two-byte header.
func foreignAlpha(blob []byte) []byte {
	bits := func(x float64) []byte { return binary.LittleEndian.AppendUint64(nil, math.Float64bits(x)) }
	return append(blob[:10:10], bytes.ReplaceAll(blob[10:], bits(telemetry.DefaultAlpha), bits(0.02))...)
}
