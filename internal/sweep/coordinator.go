package sweep

import (
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"sync"
	"time"

	opera "github.com/opera-net/opera"
	"github.com/opera-net/opera/scenario"
)

// CommandFunc builds the subprocess one shard attempt runs in. The
// command must read a gob ShardSpec from stdin and stream gob Frames to
// stdout — i.e. run ServeShard. It is called once per attempt, so a
// fresh Cmd must be returned every time.
type CommandFunc func(ctx context.Context) *exec.Cmd

// SelfWorker launches the current executable with -worker — the default
// CommandFunc when coordinator and worker share a binary (opera-sweep).
func SelfWorker(ctx context.Context) *exec.Cmd {
	exe, err := os.Executable()
	if err != nil {
		exe = os.Args[0]
	}
	return exec.CommandContext(ctx, exe, "-worker")
}

// Options shapes a sharded Run.
type Options struct {
	// Workers caps concurrent worker processes (<= 0: GOMAXPROCS).
	Workers int
	// Shards is how many pieces each dispatch round splits the remaining
	// work into (<= 0: Workers). More shards than workers bounds the
	// re-run cost of one crash at the price of more process launches.
	Shards int
	// Retries is how many re-dispatch rounds may follow the first before
	// still-missing scenarios are reported failed (< 0 behaves as 0).
	Retries int
	// Timeout bounds one shard attempt's wall-clock time (0 = none); a
	// timed-out worker is killed and its missing indices re-dispatched.
	Timeout time.Duration
	// Command launches a worker (nil: SelfWorker).
	Command CommandFunc
	// Progress observes dispatch/completion/delivery (nil: no reporting).
	// It must be safe for concurrent use; see ProgressSink.
	Progress ProgressSink
}

// Report is a finished sweep. Results and Collectors are in spec order
// regardless of sharding; scenarios that no worker ever delivered carry
// an Err in their Result and are listed in Failed, so partial failure is
// visible without invalidating the cells that did complete.
type Report struct {
	Results []scenario.Result
	// Collectors holds each scenario's telemetry wire blob (nil without
	// sketch retention or for failed cells).
	Collectors [][]byte
	// Failed lists spec indices never delivered after all retries.
	Failed []int
	// Rounds is how many dispatch rounds ran (1 = no retries needed).
	Rounds int
	// WorkerErrs collects per-attempt diagnostics (crashes, timeouts,
	// protocol errors), sorted for stable output.
	WorkerErrs []string
}

// Run executes every spec across worker subprocesses and merges the
// shards. Failed shards are retried in later rounds — only the missing
// indices are re-dispatched — and exhausted retries surface in
// Report.Failed rather than as an error: the error return is reserved
// for the coordinator itself (context cancellation). Results are
// identical to RunLocal for the scenarios that completed, at any
// Workers/Shards setting and in any shard completion order.
func Run(ctx context.Context, specs []scenario.Spec, opt Options) (Report, error) {
	rep := Report{
		Results:    make([]scenario.Result, len(specs)),
		Collectors: make([][]byte, len(specs)),
	}
	if len(specs) == 0 {
		return rep, nil
	}
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	shardCount := opt.Shards
	if shardCount <= 0 {
		shardCount = workers
	}
	retries := opt.Retries
	if retries < 0 {
		retries = 0
	}
	command := opt.Command
	if command == nil {
		command = SelfWorker
	}
	prog := opt.Progress
	if prog == nil {
		prog = nopProgress{}
	}
	prog.SweepStarted(len(specs), workers, shardCount)

	done := make([]bool, len(specs))
	missing := make([]int, len(specs))
	for i := range missing {
		missing[i] = i
	}
	var mu sync.Mutex // guards rep.Results/Collectors/WorkerErrs and done

	for round := 0; round <= retries && len(missing) > 0 && ctx.Err() == nil; round++ {
		rep.Rounds++
		sem := make(chan struct{}, workers)
		var wg sync.WaitGroup
		for bi, indices := range partition(missing, shardCount) {
			shard := ShardSpec{Indices: indices, Specs: make([]scenario.Spec, len(indices))}
			for k, gi := range shard.Indices {
				shard.Specs[k] = specs[gi]
			}
			wg.Add(1)
			sem <- struct{}{}
			prog.ShardDispatched(round, bi, shard.Indices)
			go func(round, bi int, shard ShardSpec) {
				defer wg.Done()
				defer func() { <-sem }()
				err := runShard(ctx, opt.Timeout, command, shard, func(f Frame) {
					mu.Lock()
					defer mu.Unlock()
					rep.Results[f.Index] = f.Result
					rep.Collectors[f.Index] = f.Collector
					done[f.Index] = true
					prog.ResultDelivered(f.Index, f.Result, f.Collector)
				})
				prog.ShardDone(round, bi, shard.Indices, err)
				if err != nil {
					mu.Lock()
					rep.WorkerErrs = append(rep.WorkerErrs, err.Error())
					mu.Unlock()
				}
			}(round, bi, shard)
		}
		wg.Wait()
		var still []int
		for _, gi := range missing {
			if !done[gi] {
				still = append(still, gi)
			}
		}
		missing = still
	}
	sort.Strings(rep.WorkerErrs)
	for _, gi := range missing {
		rep.Failed = append(rep.Failed, gi)
		rep.Results[gi] = failedResult(specs[gi], fmt.Sprintf("sweep: not delivered after %d dispatch round(s)", rep.Rounds))
	}
	prog.SweepDone(rep.Rounds, rep.Failed)
	return rep, ctx.Err()
}

// failedResult is the Result of a cell that never ran: the spec's name,
// network and seed, and the error.
func failedResult(sp scenario.Spec, msg string) scenario.Result {
	k, _ := opera.ParseKind(sp.Network) // 0, opera, for a name it does not know
	return scenario.Result{Name: sp.Name, Kind: k, Seed: sp.Seed, Err: msg}
}

// ErrUnexpectedIndex is a worker's frame for an index its shard does not
// hold, or for one it already delivered: the worker is killed and its
// missing indices are retried, as for a crash.
var ErrUnexpectedIndex = errors.New("sweep: worker returned an index its shard does not expect")

// runShard runs one shard attempt in a subprocess, delivering each
// decoded Frame for an index of the shard as it arrives so a crash
// mid-shard still banks the results streamed before it.
func runShard(ctx context.Context, timeout time.Duration, command CommandFunc, shard ShardSpec, deliver func(Frame)) error {
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	cmd := command(ctx)
	if cmd == nil {
		return errors.New("sweep: CommandFunc returned nil")
	}
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return fmt.Errorf("sweep: worker stdin: %w", err)
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return fmt.Errorf("sweep: worker stdout: %w", err)
	}
	if cmd.Stderr == nil {
		cmd.Stderr = os.Stderr
	}
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("sweep: start worker: %w", err)
	}

	encErr := make(chan error, 1)
	go func() {
		err := gob.NewEncoder(stdin).Encode(shard)
		stdin.Close()
		encErr <- err
	}()

	pending := make(map[int]bool, len(shard.Indices))
	for _, gi := range shard.Indices {
		pending[gi] = true
	}
	dec := gob.NewDecoder(stdout)
	var failure error
	for {
		var f Frame
		if err := dec.Decode(&f); err != nil {
			if err != io.EOF {
				failure = fmt.Errorf("sweep: decode frame: %w", err)
			}
			break
		}
		if !pending[f.Index] {
			failure = fmt.Errorf("%w: %d", ErrUnexpectedIndex, f.Index)
			break
		}
		delete(pending, f.Index)
		deliver(f)
	}
	got := len(shard.Indices) - len(pending)
	if err := ctx.Err(); err != nil && got < len(shard.Specs) {
		// The attempt's deadline, or the sweep's cancellation, stopped the
		// worker: name that, not the torn frame or exit it caused.
		failure = fmt.Errorf("sweep: worker stopped after %d/%d results: %w", got, len(shard.Specs), err)
	}
	if failure != nil {
		// Stop reading before the worker finishes writing: kill it so Wait
		// cannot deadlock on a full pipe.
		_ = cmd.Process.Kill()
	}
	waitErr := cmd.Wait()
	if err := <-encErr; err != nil && failure == nil {
		failure = fmt.Errorf("sweep: send shard: %w", err)
	}
	if failure != nil {
		return failure
	}
	if waitErr != nil {
		return fmt.Errorf("sweep: worker exited after %d/%d results: %w", got, len(shard.Specs), waitErr)
	}
	if got != len(shard.Specs) {
		return fmt.Errorf("sweep: worker returned %d/%d results", got, len(shard.Specs))
	}
	return nil
}

// partition splits indices into at most n contiguous, near-equal chunks.
func partition(indices []int, n int) [][]int {
	if len(indices) == 0 {
		return nil
	}
	if n > len(indices) {
		n = len(indices)
	}
	if n < 1 {
		n = 1
	}
	out := make([][]int, 0, n)
	for i := 0; i < n; i++ {
		lo, hi := i*len(indices)/n, (i+1)*len(indices)/n
		out = append(out, indices[lo:hi])
	}
	return out
}

// RunLocal runs every spec in-process across parallelism goroutines
// (<= 0: GOMAXPROCS) — the reference a sharded Run must reproduce
// byte-for-byte, and the -workers 0 path of opera-sweep.
func RunLocal(ctx context.Context, specs []scenario.Spec, parallelism int) (Report, error) {
	return RunLocalProgress(ctx, specs, parallelism, nil)
}

// RunLocalProgress is RunLocal with a progress sink. There are no worker
// processes, so no shard events fire — only SweepStarted, per-scenario
// ResultDelivered, and SweepDone (shards reported as 0). The specs that
// resolve run through scenario.ForEachCluster; cells skipped on
// cancellation are listed in Report.Failed.
func RunLocalProgress(ctx context.Context, specs []scenario.Spec, parallelism int, prog ProgressSink) (Report, error) {
	if prog == nil {
		prog = nopProgress{}
	}
	rep := Report{
		Results:    make([]scenario.Result, len(specs)),
		Collectors: make([][]byte, len(specs)),
		Rounds:     1,
	}
	if len(specs) == 0 {
		return rep, nil
	}
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	prog.SweepStarted(len(specs), parallelism, 0)
	var scs []scenario.Scenario
	var index []int // index[k] is the spec index of scs[k]
	for i, sp := range specs {
		sc, err := sp.Scenario()
		if err != nil {
			rep.Results[i] = failedResult(sp, err.Error())
			prog.ResultDelivered(i, rep.Results[i], nil)
			continue
		}
		scs, index = append(scs, sc), append(index, i)
	}
	ran := make([]bool, len(scs))
	results, err := scenario.ForEachCluster(ctx, scs, parallelism, func(k int, cl *opera.Cluster, res scenario.Result) {
		i := index[k]
		ran[k] = true
		rep.Results[i], rep.Collectors[i] = withCollector(cl, res)
		prog.ResultDelivered(i, rep.Results[i], rep.Collectors[i])
	})
	for k, i := range index {
		if !ran[k] {
			rep.Failed = append(rep.Failed, i)
			rep.Results[i] = results[k]
		}
	}
	prog.SweepDone(rep.Rounds, rep.Failed)
	return rep, err
}
