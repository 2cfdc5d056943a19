// Command opera-sweep runs a scenario grid — networks × loads × seed
// replicas — sharded across worker subprocesses, and writes the merged
// CSV tables under -out. The merged output is byte-identical to a
// single-process run (-workers 0) at any worker count: shards stream
// serialized telemetry back over pipes and the coordinator merges them
// with associative operations, re-dispatching shards that crash or time
// out.
//
// The grid comes from the flags below, or from a JSON file (-grid)
// mirroring the sweep.Grid struct. With -replicas N > 1 every cell runs
// at N consecutive seeds and sweep_cells.csv reports mean ± 95% t-based
// confidence intervals; with -sketch, per-cell sweep_telemetry.csv pools
// every replica's quantile sketch into one distribution.
//
// Usage:
//
//	opera-sweep -workers 4 -networks opera,expander -loads 0.1,0.25 \
//	    -replicas 3 -sketch -out sweep_out
//
// The -worker flag is internal: the coordinator re-execs its own binary
// with it to serve one shard over stdin/stdout.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"

	"github.com/opera-net/opera/internal/experiments"
	"github.com/opera-net/opera/internal/obs"
	"github.com/opera-net/opera/internal/sweep"
)

func main() {
	var (
		workerMode = flag.Bool("worker", false, "internal: serve one shard (gob ShardSpec on stdin, gob Frames on stdout)")
		gridFile   = flag.String("grid", "", "JSON grid file; overrides the grid flags below")

		networks     = flag.String("networks", "", "comma-separated architectures (default opera,expander,foldedclos)")
		workloadName = flag.String("workload", "", "flow-size distribution: datamining (default) or websearch")
		loads        = flag.String("loads", "", "comma-separated offered-load fractions (default 0.01,0.1,0.25)")
		scale        = flag.String("scale", "", "small (default) or paper")
		durationMs   = flag.Float64("duration-ms", 0, "flow-arrival window in ms of virtual time (default 20)")
		drain        = flag.Int("drain", 0, "run up to drain x the arrival window (default 15)")
		maxFlowBytes = flag.Int64("max-flow-bytes", 0, "cap sampled flow sizes (default 20MB at small scale)")
		seed         = flag.Int64("seed", 0, "base seed; replica r runs at seed+r (default 1)")
		replicas     = flag.Int("replicas", 0, "seed replicas per cell; >1 adds sweep_cells confidence intervals")
		sketch       = flag.Bool("sketch", false, "streaming sketch retention + pooled sweep_telemetry table")
		alpha        = flag.Float64("alpha", 0, "sketch relative-error bound (default 1%)")

		workers = flag.Int("workers", 0, "worker processes (0 = run in-process)")
		shards  = flag.Int("shards", 0, "shards per dispatch round (0 = workers)")
		retries = flag.Int("retries", 2, "re-dispatch rounds for crashed or timed-out shards")
		timeout = flag.Duration("timeout", 0, "per-shard wall-clock timeout (0 = none)")
		out     = flag.String("out", "sweep_out", "output directory for CSVs")

		quiet      = flag.Bool("quiet", false, "suppress per-shard progress logging on stderr")
		statusAddr = flag.String("status", "", "serve live sweep progress on this address (e.g. :8080; empty = off): "+
			"/status JSON, /status/stream SSE, /debug/vars, /debug/pprof")
	)
	flag.Parse()

	if *workerMode {
		if err := sweep.ServeShard(os.Stdin, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	var g sweep.Grid
	if *gridFile != "" {
		data, err := os.ReadFile(*gridFile)
		if err != nil {
			die(err)
		}
		if g, err = parseGrid(data); err != nil {
			die(fmt.Errorf("parse %s: %w", *gridFile, err))
		}
	} else {
		g = sweep.Grid{
			Networks:     splitList(*networks),
			Workload:     *workloadName,
			Scale:        *scale,
			DurationMs:   *durationMs,
			DrainFactor:  *drain,
			MaxFlowBytes: *maxFlowBytes,
			Seed:         *seed,
			Replicas:     *replicas,
			Sketch:       *sketch,
			Alpha:        *alpha,
		}
		ls, err := parseFloats(*loads)
		if err != nil {
			die(fmt.Errorf("-loads: %w", err))
		}
		g.Loads = ls
	}

	specs, cells, err := g.Expand()
	if err != nil {
		die(err)
	}
	fmt.Printf("opera-sweep: %d scenarios (%d cells)", len(specs), len(cells))
	if *workers > 0 {
		fmt.Printf(" across %d workers\n", *workers)
	} else {
		fmt.Println(" in-process")
	}

	// Progress reporting: per-shard logging on stderr (default on) plus,
	// with -status, the same live HTTP layer opera-sim serves.
	var sinks []sweep.ProgressSink
	if !*quiet {
		sinks = append(sinks, sweep.LogProgress(os.Stderr))
	}
	var statusSrv *http.Server
	if *statusAddr != "" {
		tracker := obs.NewSweepTracker()
		sinks = append(sinks, tracker)
		srv, bound, serveErr := obs.Serve(*statusAddr, tracker)
		if serveErr != nil {
			die(serveErr)
		}
		statusSrv = srv
		fmt.Fprintf(os.Stderr, "opera-sweep: serving http://%s/status\n", bound)
	}
	var prog sweep.ProgressSink
	if len(sinks) > 0 {
		prog = sweep.MultiProgress(sinks...)
	}

	ctx := context.Background()
	var rep sweep.Report
	if *workers > 0 {
		rep, err = sweep.Run(ctx, specs, sweep.Options{
			Workers: *workers, Shards: *shards, Retries: *retries, Timeout: *timeout,
			Progress: prog,
		})
	} else {
		rep, err = sweep.RunLocalProgress(ctx, specs, 0, prog)
	}
	if statusSrv != nil {
		defer statusSrv.Close()
	}
	if err != nil {
		die(err)
	}
	for _, msg := range rep.WorkerErrs {
		fmt.Fprintln(os.Stderr, "opera-sweep:", msg)
	}

	tables, err := sweep.Tables(g, specs, cells, rep)
	if err != nil {
		die(err)
	}
	if err := experiments.WriteAll(*out, tables); err != nil {
		die(err)
	}
	for _, t := range tables {
		fmt.Printf("  wrote %s/%s.csv (%d rows)\n", *out, t.Name, len(t.Rows))
	}
	// A cell that ran and failed (a fault target its fabric lacks, say)
	// fails the sweep as an undelivered one does; both carry an Err.
	errored := 0
	for _, r := range rep.Results {
		if r.Err != "" {
			fmt.Fprintf(os.Stderr, "opera-sweep: %s: %s\n", r.Name, r.Err)
			errored++
		}
	}
	if len(rep.Failed) > 0 {
		fmt.Fprintf(os.Stderr, "opera-sweep: %d/%d scenarios failed after %d dispatch round(s)\n",
			len(rep.Failed), len(specs), rep.Rounds)
	}
	if errored > 0 {
		os.Exit(1)
	}
}

// parseGrid decodes a -grid file. A key sweep.Grid does not have, or
// anything after the grid object, is an error: a misspelt "load" must not
// quietly run the default loads.
func parseGrid(data []byte) (sweep.Grid, error) {
	var g sweep.Grid
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&g); err != nil {
		return sweep.Grid{}, err
	}
	if _, err := dec.Token(); err != io.EOF {
		return sweep.Grid{}, errors.New("trailing data after the grid object")
	}
	return g, nil
}

func die(err error) {
	fmt.Fprintln(os.Stderr, "opera-sweep:", err)
	os.Exit(1)
}

func splitList(s string) []string {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	out := make([]string, 0, len(parts))
	for _, p := range parts {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func parseFloats(s string) ([]float64, error) {
	var out []float64
	for _, p := range splitList(s) {
		v, err := strconv.ParseFloat(p, 64)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}
