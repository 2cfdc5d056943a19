package scenario

import (
	"context"
	"runtime"
	"sync"

	opera "github.com/opera-net/opera"
)

// RunScenarios executes every Scenario, fanning clusters out across up to
// parallelism goroutines (0 = GOMAXPROCS; 1 runs sequentially), and
// returns Results in Scenario order. Each cluster is independent — own
// event engine, own seeds — so the returned Results are byte-identical to
// a sequential run regardless of parallelism.
//
// On context cancellation, scenarios not yet started are skipped (their
// Result carries Err and nothing else) and ctx.Err() is returned;
// already-running scenarios finish.
func RunScenarios(ctx context.Context, scs []Scenario, parallelism int) ([]Result, error) {
	return ForEachCluster(ctx, scs, parallelism, nil)
}

// ForEachCluster runs every Scenario and invokes fn with each finished
// cluster as soon as that scenario completes, then drops the cluster so
// it can be garbage-collected while the rest of the sweep runs. fn is
// called from worker goroutines — concurrently up to parallelism (0 =
// GOMAXPROCS) — so it must synchronize any shared state it touches
// (writing to distinct per-index slots is safe). A scenario whose run
// failed reaches fn with a nil cluster and its Err in the Result; fn is
// not called for scenarios skipped on cancellation. Results are returned
// in Scenario order. A nil fn only collects the Results.
func ForEachCluster(ctx context.Context, scs []Scenario, parallelism int, fn func(i int, cl *opera.Cluster, res Result)) ([]Result, error) {
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	results := make([]Result, len(scs))

	indices := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < parallelism && w < len(scs); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range indices {
				cl, res := Collect(scs[i])
				results[i] = res
				if fn != nil {
					fn(i, cl, res)
				}
			}
		}()
	}

	var err error
	skipFrom := func(i int) {
		err = ctx.Err()
		for j := i; j < len(scs); j++ {
			results[j], _ = scs[j].Spec.header()
			results[j].Err = err.Error()
		}
	}
feed:
	for i := range scs {
		// Check cancellation before offering work: the select below picks
		// randomly when a worker is ready AND the context is done, which
		// would keep feeding an already-cancelled sweep.
		if ctx.Err() != nil {
			skipFrom(i)
			break
		}
		select {
		case <-ctx.Done():
			skipFrom(i)
			break feed
		case indices <- i:
		}
	}
	close(indices)
	wg.Wait()
	return results, err
}
