package experiments

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/opera-net/opera/scenario"
)

// TestFigSpecsGolden pins the JSON of every spec fig07–fig10 run, at small
// scale and at the paper scale opera-experiments -full selects, against
// testdata/fig_specs.golden: one section per figure and scale, one spec
// per line. A paper-scale run takes hours, so this is the check that a
// change to how figures are described leaves what they simulate alone.
// Regenerate with UPDATE_GOLDEN=1 go test ./internal/experiments/ -run
// TestFigSpecsGolden and review the diff.
func TestFigSpecsGolden(t *testing.T) {
	figs := []struct {
		name  string
		specs func(Scale) []scenario.Spec
	}{{"fig07", fig07Specs}, {"fig08", fig08Specs}, {"fig09", fig09Specs}, {"fig10", fig10Specs}}
	var b strings.Builder
	for _, s := range []Scale{SmallScale(), PaperScale()} {
		for _, fig := range figs {
			b.WriteString("== " + fig.name + "_" + s.Name + " ==\n")
			for _, sp := range fig.specs(s) {
				line, err := json.Marshal(sp)
				if err != nil {
					t.Fatal(err)
				}
				b.Write(line)
				b.WriteByte('\n')
			}
		}
	}
	got := b.String()

	golden := filepath.Join("testdata", "fig_specs.golden")
	if os.Getenv("UPDATE_GOLDEN") == "1" {
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
		t.Fatalf("figure specs drifted from golden\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}
