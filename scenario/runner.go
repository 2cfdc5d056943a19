package scenario

import (
	"context"
	"runtime"
	"sync"

	opera "github.com/opera-net/opera"
)

// RunOption adjusts how a batch of Scenarios is executed.
type RunOption func(*runConfig)

type runConfig struct {
	parallelism int
}

// Parallelism caps how many clusters simulate concurrently. The default
// is GOMAXPROCS; Parallelism(1) runs sequentially. Results are identical
// at every setting.
func Parallelism(n int) RunOption {
	return func(rc *runConfig) {
		if n > 0 {
			rc.parallelism = n
		}
	}
}

// RunScenarios executes every Scenario, fanning clusters out across
// goroutines, and returns Results in Scenario order. Each cluster is
// independent — own event engine, own seeds — so the returned Results are
// byte-identical to a sequential run regardless of Parallelism.
//
// On context cancellation, scenarios not yet started are skipped (their
// Result carries Err and nothing else) and ctx.Err() is returned;
// already-running scenarios finish.
func RunScenarios(ctx context.Context, scs []Scenario, opts ...RunOption) ([]Result, error) {
	return runAll(ctx, scs, nil, opts)
}

// CollectScenarios is RunScenarios for callers that also need the
// finished clusters (raw flows, delivery time series): clusters[i] belongs
// to scs[i] and is nil when that scenario failed or was skipped. It holds
// every cluster in memory until all scenarios finish — for large sweeps
// prefer ForEachCluster, which releases each cluster as soon as it has
// been inspected.
func CollectScenarios(ctx context.Context, scs []Scenario, opts ...RunOption) ([]*opera.Cluster, []Result, error) {
	clusters := make([]*opera.Cluster, len(scs))
	results, err := ForEachCluster(ctx, scs, func(i int, cl *opera.Cluster, _ Result) {
		clusters[i] = cl
	}, opts...)
	return clusters, results, err
}

// ForEachCluster runs every Scenario and invokes fn with each finished
// cluster as soon as that scenario completes, then drops the cluster so
// it can be garbage-collected while the rest of the sweep runs. fn is
// called from worker goroutines — concurrently up to the configured
// Parallelism — so it must synchronize any shared state it touches
// (writing to distinct per-index slots is safe). A scenario whose run
// failed reaches fn with a nil cluster and its Err in the Result; fn is
// not called for scenarios skipped on cancellation. Results are returned
// in Scenario order.
func ForEachCluster(ctx context.Context, scs []Scenario, fn func(i int, cl *opera.Cluster, res Result), opts ...RunOption) ([]Result, error) {
	return runAll(ctx, scs, fn, opts)
}

func runAll(ctx context.Context, scs []Scenario, fn func(int, *opera.Cluster, Result), opts []RunOption) ([]Result, error) {
	rc := runConfig{parallelism: runtime.GOMAXPROCS(0)}
	for _, opt := range opts {
		opt(&rc)
	}
	results := make([]Result, len(scs))

	indices := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < rc.parallelism && w < len(scs); w++ {
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
			results[j] = Result{Name: scs[j].Name, Kind: scs[j].Kind, Seed: scs[j].Seed, Err: err.Error()}
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
