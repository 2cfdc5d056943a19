//go:build race

package ndp

// raceEnabled reports that this test binary was built with -race; the
// allocation gates skip themselves there — the race runtime allocates on
// its own account, and nothing in them is concurrent.
const raceEnabled = true
