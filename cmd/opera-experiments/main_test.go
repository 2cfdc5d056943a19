package main

import (
	"slices"
	"strings"
	"testing"
)

var testNames = []string{"fig01", "fig04", "ablation", "guardband"}

// A name -only does not know fails before anything runs and lists the
// known ones, instead of being skipped while the rest run.
func TestOnlyRejectsUnknownNames(t *testing.T) {
	_, err := selectJobs(testNames, "fig04,fig7")
	if err == nil {
		t.Fatal("-only fig04,fig7 accepted")
	}
	for _, want := range []string{`"fig7"`, "fig01,fig04,ablation,guardband"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %s", err, want)
		}
	}
}

// Known names pick their jobs, whatever order -only gives; no -only picks
// every job.
func TestOnlySelectsNamedJobs(t *testing.T) {
	picked, err := selectJobs(testNames, "guardband, fig04")
	if err != nil {
		t.Fatal(err)
	}
	if want := []bool{false, true, false, true}; !slices.Equal(picked, want) {
		t.Fatalf("picked %v, want %v", picked, want)
	}
	picked, err = selectJobs(testNames, "")
	if err != nil || slices.Contains(picked, false) {
		t.Fatalf("empty -only picked %v (%v)", picked, err)
	}
}
