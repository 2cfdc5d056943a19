//go:build !race

package ndp

// raceEnabled reports whether this test binary was built with -race.
const raceEnabled = false
