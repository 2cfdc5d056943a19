package experiments

import (
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// pinTinyGolden pins tables byte-for-byte against their sections of
// testdata/figs_tiny.golden, one section per table name. The tiny fig07–
// fig10 runs carry the paper's headline claims at test size, so
// any CSV drift means a change moved published numbers — which must be
// deliberate. Regenerate with UPDATE_GOLDEN=1 go test ./internal/experiments/
// -run 'TestFig0[79]TinyRun|TestFig08SmallShuffle|TestFig10MixedTiny' and review
// the diff; a test rewrites only its own sections.
func pinTinyGolden(t *testing.T, tables []Table) {
	t.Helper()
	golden := filepath.Join("testdata", "figs_tiny.golden")
	sections := map[string]string{}
	raw, err := os.ReadFile(golden)
	if err != nil && os.Getenv("UPDATE_GOLDEN") != "1" {
		t.Fatalf("missing golden (regenerate with UPDATE_GOLDEN=1): %v", err)
	}
	for _, s := range strings.Split(string(raw), "== ")[1:] {
		name, csv, _ := strings.Cut(s, " ==\n")
		sections[name] = csv
	}

	if os.Getenv("UPDATE_GOLDEN") == "1" {
		for _, tb := range tables {
			sections[tb.Name] = tb.CSV()
		}
		var b strings.Builder
		for _, name := range slices.Sorted(maps.Keys(sections)) {
			b.WriteString("== " + name + " ==\n" + sections[name])
		}
		if err := os.WriteFile(golden, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d tables to %s", len(tables), golden)
		return
	}
	for _, tb := range tables {
		want, ok := sections[tb.Name]
		if !ok {
			t.Errorf("%s: no golden section (regenerate with UPDATE_GOLDEN=1)", tb.Name)
			continue
		}
		if got := tb.CSV(); got != want {
			t.Errorf("%s drifted from golden\n--- got ---\n%s--- want ---\n%s", tb.Name, got, want)
		}
	}
}
