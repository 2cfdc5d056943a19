package simlib

import (
	"math/rand"
	"time"
)

func bad() {
	_ = time.Now()                                      // want `time\.Now reads the wall clock`
	_ = rand.Intn(4)                                    // want `math/rand\.Intn draws from the process-global RNG`
	rand.Shuffle(4, func(i, j int) {})                  // want `math/rand\.Shuffle draws from the process-global RNG`
	_ = rand.Float64()                                  // want `math/rand\.Float64 draws from the process-global RNG`
	_ = rand.New(rand.NewSource(time.Now().UnixNano())) // want `time\.Now reads the wall clock`
}

func good(seed int64, start time.Time) time.Duration {
	r := rand.New(rand.NewSource(seed)) // good: constructors are exempt
	_ = r.Intn(4)                       // good: methods on a seeded *rand.Rand
	r.Shuffle(4, func(i, j int) {})
	return 5 * time.Millisecond // good: time arithmetic without the wall clock
}

func allowed() time.Time {
	return time.Now() //operalint:allow determrand -- wall-clock progress logging
}

// A trailing directive covers its own line only, not the one below it.
func trailingLeaks() (time.Time, time.Time) {
	a := time.Now() //operalint:allow determrand -- this line only
	b := time.Now() // want `time\.Now reads the wall clock`
	return a, b
}
