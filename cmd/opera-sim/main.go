// Command opera-sim runs a single packet-level simulation scenario and
// prints flow-completion statistics — a workbench for exploring the
// architectures interactively. Open-loop workloads stream lazily through
// the Source API, so long windows and high loads never materialize a
// flow list.
//
// Examples:
//
//	opera-sim -network opera -workload datamining -load 0.25 -duration 20ms
//	opera-sim -network foldedclos -workload shuffle -flowbytes 100000
//	opera-sim -network rotornet -workload websearch -load 0.05
//	opera-sim -network opera -workload mix -load 0.2 -arrivals 5000
//	opera-sim -network opera -trace flows.txt
//	opera-sim -network opera -workload shuffle -tag shuffle \
//	    -fail-at 500us:link:3:2,2ms:recover-link:3:2
//	opera-sim -network opera -workload datamining -duration 10s \
//	    -retention sketch
//	opera-sim -network opera -workload websearch -event-kinds
//
// The last form runs flat-memory: completed flows feed streaming
// quantile sketches (±1% pinned error, see -sketch-alpha) instead of
// being retained, so arbitrarily long windows hold only active flows.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"syscall"
	"time"

	"github.com/opera-net/opera/internal/eventsim"
	"github.com/opera-net/opera/internal/obs"
	"github.com/opera-net/opera/scenario"
)

// run is what the command line asks for: the Scenario its run
// description (Scenario.Spec) resolves to, and the process-local settings
// that are not part of the description.
type run struct {
	scenario scenario.Scenario
	// workload is the label printed with the results.
	workload string

	statusAddr                string
	statusEvery, statusLinger time.Duration
	eventKinds                bool
}

// parseArgs turns the command line into a run. Every flag that describes
// the simulation lands in one scenario.Spec field, and the Spec is
// resolved here, so any error means nothing has run yet.
func parseArgs(fs *flag.FlagSet, args []string) (run, error) {
	network := fs.String("network", "opera", "opera | expander | foldedclos | rotornet | rotornet-hybrid")
	wl := fs.String("workload", "datamining", "datamining | websearch | hadoop | mix | incast | shuffle | permutation | hotrack")
	load := fs.Float64("load", 0.10, "offered load fraction (Poisson workloads)")
	arrivals := fs.Int("arrivals", 0, "cap on open-loop flow arrivals (0 = window-bound only)")
	tracePath := fs.String("trace", "", "replay a flow trace file (arrival_ns src dst bytes [tag] [bulk] per line); overrides -workload")
	duration := fs.Duration("duration", 20*time.Millisecond, "arrival window (virtual time)")
	racks := fs.Int("racks", 16, "racks (Opera/RotorNet/expander)")
	hostsPerRack := fs.Int("hosts-per-rack", 4, "hosts per rack")
	uplinks := fs.Int("uplinks", 4, "uplinks per ToR")
	closK := fs.Int("clos-k", 8, "folded-Clos radix")
	closF := fs.Int("clos-f", 3, "folded-Clos oversubscription")
	flowBytes := fs.Int64("flowbytes", 100_000, "flow size for shuffle/permutation/hotrack")
	maxFlow := fs.Int64("maxflow", 50_000_000, "cap on sampled flow sizes (0 = none)")
	seed := fs.Int64("seed", 1, "random seed")
	drain := fs.Int("drain", 50, "drain deadline as a multiple of -duration")
	failAt := fs.String("fail-at", "", "comma-separated fault schedule, each TIME:ACTION "+
		"(link:R:S | tor:R | switch:S | recover-link:R:S | recover-tor:R | recover-switch:S | random-links:FRAC | "+
		"lossy:R:S:RATE | degraded:R:S:FRAC | flap:R:S:UP:DOWN | "+
		"tier-link:T:S:P | recover-tier-link:T:S:P | tier-switch:T:S | recover-tier-switch:T:S), "+
		"e.g. \"500us:link:3:2,1ms:lossy:4:0:0.01,2ms:recover-link:3:2\"")
	tagName := fs.String("tag", "", "tag generated flows; per-tag stats are reported")
	retention := fs.String("retention", "all",
		"metrics retention: all (exact, retains every flow) | sketch (streaming quantile sketches, flat memory for unbounded runs)")
	sketchAlpha := fs.Float64("sketch-alpha", 0.01, "relative-error bound for -retention sketch")
	statusAddr := fs.String("status", "", "serve live status on this address (e.g. :8080; empty = off): "+
		"/status JSON, /status/stream SSE, /debug/vars, /debug/pprof")
	statusEvery := fs.Duration("status-every", time.Millisecond, "snapshot sampling period in virtual time (with -status)")
	statusLinger := fs.Duration("status-linger", 0, "keep serving -status this long (wall time) after the run finishes; SIGINT/SIGTERM ends the linger early")
	eventKinds := fs.Bool("event-kinds", false, "after the run, print how many engine events each handler type fired, most first, a port's deliveries by packet kind")
	if err := fs.Parse(args); err != nil {
		return run{}, err
	}

	events, err := scenario.ParseEvents(*failAt)
	if err != nil {
		return run{}, err
	}
	dur := eventsim.Time(duration.Nanoseconds())
	src := scenario.SourceSpec{
		Type: *wl, Load: *load, Window: dur, MaxFlowBytes: *maxFlow, FlowBytes: *flowBytes,
		MaxFlows: *arrivals, Tag: *tagName,
	}
	r := run{
		workload:   *wl,
		statusAddr: *statusAddr, statusEvery: *statusEvery, statusLinger: *statusLinger,
		eventKinds: *eventKinds,
	}
	spec := scenario.Spec{
		Name: *network, Network: *network, Seed: *seed,
		Duration: dur * eventsim.Time(*drain),
		Racks:    *racks, HostsPerRack: *hostsPerRack, Uplinks: *uplinks,
		ClosK: *closK, ClosF: *closF,
		Events: events,
	}
	switch {
	case *tracePath != "":
		src.Type, src.Path = "replay", *tracePath
		r.workload = "trace:" + *tracePath
	case *wl == "datamining" || *wl == "websearch" || *wl == "hadoop":
		src.Type, src.Dist = "poisson", *wl
	case *wl == "incast":
		src.Fanin, src.Period, src.Bursts = 8, dur/10, 10
	case *wl == "shuffle" || *wl == "permutation" || *wl == "hotrack":
		// §5.6's throughput patterns are bulk workloads: application-tag
		// them so Opera serves them on direct circuits regardless of size.
		spec.AppTaggedBulk = true
	case *wl != "mix":
		return run{}, fmt.Errorf("unknown workload %q", *wl)
	}
	spec.Sources = []scenario.SourceSpec{src}
	if *retention == "sketch" {
		spec.Retention = scenario.RetentionSpec{Sketch: true, Alpha: *sketchAlpha}
	} else if *retention != "all" {
		return run{}, fmt.Errorf("unknown -retention %q (want all or sketch)", *retention)
	}
	r.scenario, err = spec.Scenario()
	return r, err
}

func main() {
	r, err := parseArgs(flag.CommandLine, os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	os.Exit(simulate(r))
}

// simulate runs the resolved scenario and prints its results; it returns
// the process exit code.
func simulate(r run) int {
	sc := r.scenario
	// Live observability: a Publisher samples the run into a lock-free
	// mailbox on the engine's meta-event surface (results stay
	// byte-identical), and an HTTP server exposes the mailbox.
	var pub *obs.Publisher
	var statusSrv *http.Server
	if r.statusAddr != "" {
		box := &obs.Mailbox{}
		pub = obs.NewPublisher(box, eventsim.Time(r.statusEvery.Nanoseconds()))
		sc.Observer = pub
		srv, bound, err := obs.Serve(r.statusAddr, box)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		statusSrv = srv
		fmt.Fprintf(os.Stderr, "status: serving http://%s/status\n", bound)
	}

	var kinds *eventsim.KindCounts
	if r.eventKinds {
		kinds = eventsim.CountKinds(eventsim.NewWheelScheduler())
		sc.Scheduler = kinds
	}

	start := time.Now()
	_, res := scenario.Collect(sc)
	wall := time.Since(start)
	if res.Err != "" {
		fmt.Fprintln(os.Stderr, res.Err)
		return 1
	}

	fmt.Printf("network=%s workload=%s flows=%d completed=%d (%.1f%%) wall=%v\n",
		res.Kind, r.workload, res.FlowsTotal, res.FlowsDone,
		100*float64(res.FlowsDone)/float64(max(res.FlowsTotal, 1)), wall.Round(time.Millisecond))
	if !res.Completed {
		fmt.Printf("  (did not finish before drain deadline)\n")
	}
	for _, cs := range []struct {
		label string
		s     scenario.FCTStats
	}{{"lowlat", res.LowLat}, {"bulk", res.Bulk}} {
		if cs.s.N == 0 {
			continue
		}
		fmt.Printf("  %-7s n=%-6d fct p50=%.1fµs p99=%.1fµs max=%.1fµs\n",
			cs.label, cs.s.N, cs.s.P50Us, cs.s.P99Us, cs.s.MaxUs)
	}
	fmt.Printf("  throughput=%.2f Gb/s aggregate-tax=%.1f%% bulk-NACKs=%d sim-events=%d\n",
		res.ThroughputGbps, 100*res.AggregateTax, res.BulkNACKs, res.SimEvents)
	if res.ErrorBound > 0 {
		fmt.Printf("  telemetry (sketch, ±%.2g%%): p90=%.1fµs p99=%.1fµs p99.9=%.1fµs\n",
			100*res.ErrorBound, res.All.P90Us, res.All.P99Us, res.All.P999Us)
		if n := len(res.DeliveredRates); n > 0 {
			fmt.Printf("  trailing window: %d×%.1fms bins from t=%.1fms, last-bin throughput=%.2f Gb/s window-tax=%.1f%%\n",
				n, res.DeliveredBinS*1000, res.DeliveredStartS*1000, res.DeliveredRates[n-1]*8/1e9, 100*res.WindowTax)
		}
	}
	if len(res.ByTag) > 0 {
		tags := make([]string, 0, len(res.ByTag))
		for t := range res.ByTag {
			tags = append(tags, t)
		}
		sort.Strings(tags)
		for _, t := range tags {
			ts := res.ByTag[t]
			fmt.Printf("  tag %-8s n=%d/%d p50=%.1fµs p99=%.1fµs throughput=%.2f Gb/s\n",
				t, ts.FlowsDone, ts.FlowsTotal, ts.FCT.P50Us, ts.FCT.P99Us, ts.ThroughputGbps)
		}
	}

	if kinds != nil {
		// The total is the table's own: with -status it includes the
		// publisher's meta events, which sim-events leaves out.
		var total uint64
		kinds.Each(func(_ string, events uint64) { total += events })
		fmt.Printf("  events by handler type:\n")
		kinds.Each(func(kind string, events uint64) {
			fmt.Printf("    %12d %5.1f%%  %s\n", events, 100*float64(events)/float64(total), kind)
		})
	}

	if statusSrv != nil {
		// Publish the final state (the run can end between sampling ticks),
		// then keep the endpoint up through the linger so dashboards and
		// smoke tests can read the completed run. A signal ends it early.
		pub.Finalize()
		if r.statusLinger > 0 {
			fmt.Fprintf(os.Stderr, "status: lingering %v (SIGINT/SIGTERM to stop)\n", r.statusLinger)
			sig := make(chan os.Signal, 1)
			signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
			select {
			case <-time.After(r.statusLinger):
			case <-sig:
			}
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		statusSrv.Shutdown(ctx)
	}
	return 0
}
