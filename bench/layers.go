package main

import "strings"

const modulePath = "github.com/opera-net/opera"

// Pseudo-layers a package can map to besides the modules' own names.
const (
	// layerCaller marks helper packages with no work of their own worth
	// naming (free lists, sample statistics): their samples are charged to
	// the nearest calling layer.
	layerCaller = "caller"
	// layerOffline marks packages no benchmark workload executes
	// (analyses, figure drivers, lint tooling). Samples there would land
	// in other.cpu_frac.
	layerOffline = "offline"
	layerGC      = "runtime.gc"
	layerAlloc   = "runtime.alloc"
	layerOther   = "other"
)

// packageLayers is the one prefix→layer table: every non-test package of
// the module (path relative to the module root; "" is the root package)
// maps to exactly one layer. layers_test.go fails when a package is added
// without being classified here.
var packageLayers = map[string]string{
	"":                  "workload", // Cluster: source pump and flow admission
	"internal/workload": "workload",

	"internal/eventsim": "eventsim",
	"internal/sim":      "sim.forward", // Port and its queues are split off below
	"internal/topology": "routing",
	"internal/routing":  "routing",
	"internal/graph":    "routing",
	"internal/ndp":      "ndp",
	"internal/rotorlb":  "rotorlb",

	"internal/telemetry": "telemetry",
	"scenario":           "scenario",
	"internal/sweep":     "sweep",
	"internal/obs":       "obs",

	"internal/freelist": layerCaller,
	"internal/stats":    layerCaller,

	"internal/cost":                layerOffline,
	"internal/experiments":         layerOffline,
	"internal/faults":              layerOffline,
	"internal/fluid":               layerOffline,
	"internal/plot":                layerOffline,
	"internal/prototype":           layerOffline,
	"internal/trace":               layerOffline,
	"internal/lint/analysis":       layerOffline,
	"internal/lint/analysistest":   layerOffline,
	"internal/lint/determrand":     layerOffline,
	"internal/lint/injecterr":      layerOffline,
	"internal/lint/lintutil":       layerOffline,
	"internal/lint/loadpkg":        layerOffline,
	"internal/lint/maporder":       layerOffline,
	"internal/lint/noclosuresched": layerOffline,
}

// simPortTypes are the receiver types of package sim that form the port
// pipeline (sim.port); everything else in the package is fabric
// forwarding and accounting (sim.forward).
var simPortTypes = []string{"Port", "pktFIFO", "portTxDone", "portDeliver"}

// cpuLayers are the layers whose CPU share is reported as
// "<layer>.cpu_frac" (the two sim layers as sim.port_cpu_frac and
// sim.forward_cpu_frac, the runtime pair as runtime.gc_cpu_frac and
// runtime.alloc_cpu_frac). Every other sample is other.cpu_frac, so the
// shares sum to 1.
var cpuLayers = []string{
	"eventsim", "sim.port", "sim.forward", "routing", "ndp", "rotorlb",
	"workload", "telemetry", layerGC, layerAlloc,
}

// gcFrames and allocFrames are runtime function-name prefixes. A sample
// with a GC frame anywhere on its stack is garbage-collection work
// (background marking, assists, sweeping, write-barrier flushes); failing
// that, one with an allocator frame is allocation work.
var (
	gcFrames = []string{
		"runtime.gc", "runtime.bgsweep", "runtime.bgscavenge", "runtime.wbBuf",
		"runtime.scanobject", "runtime.scanblock", "runtime.greyobject", "runtime.markroot",
		"runtime.sweepone", "runtime.(*sweepLocked).", "runtime.(*gcWork).",
		"runtime.(*mheap).reclaim", "runtime.forcegchelper", "runtime.deductAssistCredit",
	}
	allocFrames = []string{
		"runtime.mallocgc", "runtime.newobject", "runtime.newarray", "runtime.makeslice",
		"runtime.growslice", "runtime.(*mcache).", "runtime.(*mcentral).", "runtime.(*mheap).alloc",
	}
)

// splitFunc cuts a profile function name such as
// "github.com/opera-net/opera/internal/sim.(*Port).Enqueue" into its
// import path and the rest. Type arguments are dropped first: they can
// hold slashes and dots of their own.
func splitFunc(name string) (pkg, rest string) {
	if i := strings.IndexByte(name, '['); i >= 0 {
		name = name[:i]
	}
	slash := strings.LastIndexByte(name, '/')
	dot := strings.IndexByte(name[slash+1:], '.')
	if dot < 0 {
		return name, ""
	}
	return name[:slash+1+dot], name[slash+1+dot+1:]
}

// funcLayer maps one function name to its layer, or "" for code outside
// the table (runtime, standard library, the benchmark itself).
func funcLayer(name string) string {
	pkg, rest := splitFunc(name)
	var rel string
	switch {
	case pkg == modulePath:
	case strings.HasPrefix(pkg, modulePath+"/"):
		rel = pkg[len(modulePath)+1:]
	default:
		return ""
	}
	layer := packageLayers[rel]
	if rel == "internal/sim" {
		for _, t := range simPortTypes {
			if strings.HasPrefix(rest, "(*"+t+").") || strings.HasPrefix(rest, t+".") {
				return "sim.port"
			}
		}
	}
	return layer
}

func hasAnyPrefix(s string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(s, p) {
			return true
		}
	}
	return false
}

// stackLayer attributes one CPU sample (function names, leaf first) to a
// layer: garbage collection and allocation by any frame, otherwise the
// deepest frame the table knows — so time in the runtime or the standard
// library is charged to the layer that called into it.
func stackLayer(stack []string) string {
	alloc := false
	for _, fn := range stack {
		if hasAnyPrefix(fn, gcFrames) {
			return layerGC
		}
		alloc = alloc || hasAnyPrefix(fn, allocFrames)
	}
	if alloc {
		return layerAlloc
	}
	for _, fn := range stack {
		switch l := funcLayer(fn); l {
		case "", layerCaller:
		default:
			return l
		}
	}
	return layerOther
}

// cpuShares folds a CPU profile into per-layer sample shares.
func cpuShares(samples []stackSample) map[string]float64 {
	counts := make(map[string]int64)
	var total int64
	for _, s := range samples {
		counts[stackLayer(s.funcs)] += s.count
		total += s.count
	}
	shares := make(map[string]float64, len(counts))
	if total == 0 {
		return shares
	}
	for l, n := range counts {
		shares[l] = float64(n) / float64(total)
	}
	return shares
}
