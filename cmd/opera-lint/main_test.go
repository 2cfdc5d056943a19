package main

import (
	"os"
	"path/filepath"
	"testing"
)

// TestRunExitStatus pins run's exit codes on a throwaway module: 0 clean,
// 1 findings, 2 for a package that fails to type-check or a pattern that
// matches no package at all.
func TestRunExitStatus(t *testing.T) {
	dir := t.TempDir()
	files := map[string]string{
		"go.mod":                      "module example.com/lintexit\n\ngo 1.24\n",
		"clean/clean.go":              "package clean\n\nfunc Two() int { return 2 }\n",
		"wall/wall.go":                "package wall\n\nimport \"time\"\n\nfunc Now() time.Time { return time.Now() }\n",
		"broken/broken.go":            "package broken\n\nfunc Bad() int { return \"x\" }\n",
		"testdata/fixture/fixture.go": "package fixture\n",
	}
	for name, body := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	t.Chdir(dir)
	for _, tc := range []struct {
		pattern string
		want    int
	}{
		{"./clean", 0},
		{"./wall", 1},
		{"./broken", 2},
		{"./testdata/...", 2}, // the go command skips testdata
	} {
		if got := run([]string{tc.pattern}); got != tc.want {
			t.Errorf("run(%q) = %d, want %d", tc.pattern, got, tc.want)
		}
	}
}
