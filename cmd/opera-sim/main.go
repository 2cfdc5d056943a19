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

	opera "github.com/opera-net/opera"
	"github.com/opera-net/opera/internal/eventsim"
	"github.com/opera-net/opera/internal/obs"
	"github.com/opera-net/opera/internal/workload"
	"github.com/opera-net/opera/scenario"
)

// parseFaultSchedule turns "-fail-at 500us:link:3:2,2ms:switch:1" into
// scenario Events; the grammar is scenario.ParseEvents'.
func parseFaultSchedule(s string) ([]scenario.Event, error) {
	specs, err := scenario.ParseEvents(s)
	if err != nil {
		return nil, err
	}
	var out []scenario.Event
	for _, es := range specs {
		ev, err := es.Event()
		if err != nil {
			return nil, err
		}
		out = append(out, ev)
	}
	return out, nil
}

func main() {
	network := flag.String("network", "opera", "opera | expander | foldedclos | rotornet | rotornet-hybrid")
	wl := flag.String("workload", "datamining", "datamining | websearch | hadoop | mix | incast | shuffle | permutation | hotrack")
	load := flag.Float64("load", 0.10, "offered load fraction (Poisson workloads)")
	arrivals := flag.Int("arrivals", 0, "cap on open-loop flow arrivals (0 = window-bound only)")
	tracePath := flag.String("trace", "", "replay a flow trace file (arrival_ns src dst bytes [tag] [bulk] per line); overrides -workload")
	duration := flag.Duration("duration", 20*time.Millisecond, "arrival window (virtual time)")
	racks := flag.Int("racks", 16, "racks (Opera/RotorNet/expander)")
	hostsPerRack := flag.Int("hosts-per-rack", 4, "hosts per rack")
	uplinks := flag.Int("uplinks", 4, "uplinks per ToR")
	closK := flag.Int("clos-k", 8, "folded-Clos radix")
	closF := flag.Int("clos-f", 3, "folded-Clos oversubscription")
	flowBytes := flag.Int64("flowbytes", 100_000, "flow size for shuffle/permutation/hotrack")
	maxFlow := flag.Int64("maxflow", 50_000_000, "cap on sampled flow sizes (0 = none)")
	seed := flag.Int64("seed", 1, "random seed")
	drain := flag.Int("drain", 50, "drain deadline as a multiple of -duration")
	failAt := flag.String("fail-at", "", "comma-separated fault schedule, each TIME:ACTION "+
		"(link:R:S | tor:R | switch:S | recover-link:R:S | recover-tor:R | recover-switch:S | random-links:FRAC | "+
		"lossy:R:S:RATE | degraded:R:S:FRAC | flap:R:S:UP:DOWN | "+
		"tier-link:T:S:P | recover-tier-link:T:S:P | tier-switch:T:S | recover-tier-switch:T:S), "+
		"e.g. \"500us:link:3:2,1ms:lossy:4:0:0.01,2ms:recover-link:3:2\"")
	tagName := flag.String("tag", "", "tag generated flows; per-tag stats are reported")
	retention := flag.String("retention", "all",
		"metrics retention: all (exact, retains every flow) | sketch (streaming quantile sketches, flat memory for unbounded runs)")
	sketchAlpha := flag.Float64("sketch-alpha", 0.01, "relative-error bound for -retention sketch")
	statusAddr := flag.String("status", "", "serve live status on this address (e.g. :8080; empty = off): "+
		"/status JSON, /status/stream SSE, /debug/vars, /debug/pprof")
	statusEvery := flag.Duration("status-every", time.Millisecond, "snapshot sampling period in virtual time (with -status)")
	statusLinger := flag.Duration("status-linger", 0, "keep serving -status this long (wall time) after the run finishes; SIGINT/SIGTERM ends the linger early")
	flag.Parse()

	events, err := parseFaultSchedule(*failAt)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	kind, err := opera.ParseKind(*network)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	dur := eventsim.Time(duration.Nanoseconds())
	var gen scenario.Source
	var replay *workload.ReplaySource
	var replayRangeErr error
	switch {
	case *tracePath != "":
		rs, closer, err := workload.ReplayFile(*tracePath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		defer closer.Close()
		replay = rs
		// The parser can't know the cluster size; bound-check against the
		// built cluster so a stray host index is a diagnostic, not a panic.
		gen = func(env scenario.Env) workload.Source {
			return workload.SourceFunc(func() (workload.FlowSpec, bool) {
				spec, ok := rs.Next()
				if ok && (spec.Src >= env.NumHosts || spec.Dst >= env.NumHosts) {
					replayRangeErr = fmt.Errorf("trace flow %d->%d outside cluster with %d hosts", spec.Src, spec.Dst, env.NumHosts)
					return workload.FlowSpec{}, false
				}
				return spec, ok
			})
		}
		*wl = "trace:" + *tracePath
	case *wl == "datamining":
		gen = scenario.Poisson(workload.Datamining(), *load, dur, *maxFlow)
	case *wl == "websearch":
		gen = scenario.Poisson(workload.Websearch(), *load, dur, *maxFlow)
	case *wl == "hadoop":
		gen = scenario.Poisson(workload.Hadoop(), *load, dur, *maxFlow)
	case *wl == "mix":
		// The §5.2 blend: latency-sensitive websearch over a bulk-tagged
		// datamining component, one open-loop arrival process.
		gen = func(env scenario.Env) workload.Source {
			return workload.Mix(workload.PoissonConfig{
				NumHosts:     env.NumHosts,
				HostsPerRack: env.HostsPerRack,
				Load:         *load,
				LinkRateGbps: env.LinkRateGbps,
				Duration:     dur,
				Seed:         env.Seed,
			},
				workload.MixComponent{Dist: workload.Websearch(), Weight: 0.5, Tag: "websearch", MaxFlowBytes: *maxFlow},
				workload.MixComponent{Dist: workload.Datamining(), Weight: 0.5, Tag: "datamining", Bulk: true, MaxFlowBytes: *maxFlow},
			)
		}
	case *wl == "incast":
		gen = scenario.Incast(8, *flowBytes, dur/10, 10)
	case *wl == "shuffle":
		gen = scenario.Adapt(scenario.Shuffle(*flowBytes, 0))
	case *wl == "permutation":
		gen = scenario.Adapt(func(numHosts, hostsPerRack int, seed int64) []workload.FlowSpec {
			return workload.Permutation(numHosts, hostsPerRack, *flowBytes, seed)
		})
	case *wl == "hotrack":
		gen = scenario.Adapt(func(numHosts, hostsPerRack int, seed int64) []workload.FlowSpec {
			return workload.HotRack(hostsPerRack, *flowBytes)
		})
	default:
		fmt.Fprintf(os.Stderr, "unknown workload %q\n", *wl)
		os.Exit(2)
	}
	if *arrivals > 0 {
		gen = scenario.Take(gen, *arrivals)
	}
	if *tagName != "" {
		gen = scenario.TagSource(*tagName, gen)
	}

	opts := []opera.Option{
		opera.WithRacks(*racks),
		opera.WithHostsPerRack(*hostsPerRack),
		opera.WithUplinks(*uplinks),
		opera.WithClos(*closK, *closF),
		// §5.6's throughput patterns are bulk workloads: application-tag
		// them so Opera serves them on direct circuits regardless of size.
		opera.WithAppTaggedBulk(*wl == "shuffle" || *wl == "hotrack" || *wl == "permutation"),
	}
	switch *retention {
	case "all":
	case "sketch":
		opts = append(opts,
			opera.WithRetention(opera.RetainSketch(opera.SketchOptions{Alpha: *sketchAlpha})))
	default:
		fmt.Fprintf(os.Stderr, "unknown -retention %q (want all or sketch)\n", *retention)
		os.Exit(2)
	}

	sc := scenario.Scenario{
		Name:     *network,
		Kind:     kind,
		Seed:     *seed,
		Options:  opts,
		Sources:  []scenario.Source{gen},
		Events:   events,
		Duration: dur * eventsim.Time(*drain),
	}

	// Live observability: a Publisher samples the run into a lock-free
	// mailbox on the engine's meta-event surface (results stay
	// byte-identical), and an HTTP server exposes the mailbox.
	var pub *obs.Publisher
	var statusSrv *http.Server
	if *statusAddr != "" {
		box := &obs.Mailbox{}
		pub = obs.NewPublisher(box, eventsim.Time(statusEvery.Nanoseconds()))
		sc.Observer = pub
		srv, bound, err := obs.Serve(*statusAddr, box)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		statusSrv = srv
		fmt.Fprintf(os.Stderr, "status: serving http://%s/status\n", bound)
	}

	start := time.Now()
	_, res := scenario.Collect(sc)
	wall := time.Since(start)
	if res.Err != "" {
		fmt.Fprintln(os.Stderr, res.Err)
		os.Exit(1)
	}
	if replay != nil && replay.Err() != nil {
		fmt.Fprintln(os.Stderr, replay.Err())
		os.Exit(1)
	}
	if replayRangeErr != nil {
		fmt.Fprintln(os.Stderr, replayRangeErr)
		os.Exit(1)
	}

	fmt.Printf("network=%s workload=%s flows=%d completed=%d (%.1f%%) wall=%v\n",
		kind, *wl, res.FlowsTotal, res.FlowsDone,
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
	if tel := res.Telemetry; tel != nil {
		fmt.Printf("  telemetry (sketch, ±%.2g%%): p90=%.1fµs p99=%.1fµs p99.9=%.1fµs\n",
			100*tel.ErrorBound, tel.All.P90Us, tel.All.P99Us, tel.All.P999Us)
		if n := len(tel.WindowGbps); n > 0 {
			fmt.Printf("  trailing window: %d×%.1fms bins from t=%.1fms, last-bin throughput=%.2f Gb/s window-tax=%.1f%%\n",
				n, tel.WindowBinMs, tel.WindowStartMs, tel.WindowGbps[n-1], 100*tel.WindowTax)
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

	if statusSrv != nil {
		// Publish the final state (the run can end between sampling ticks),
		// then keep the endpoint up through the linger so dashboards and
		// smoke tests can read the completed run. A signal ends it early.
		pub.Finalize()
		if *statusLinger > 0 {
			fmt.Fprintf(os.Stderr, "status: lingering %v (SIGINT/SIGTERM to stop)\n", *statusLinger)
			sig := make(chan os.Signal, 1)
			signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
			select {
			case <-time.After(*statusLinger):
			case <-sig:
			}
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		statusSrv.Shutdown(ctx)
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
