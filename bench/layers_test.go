package main

import (
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// modulePackages lists every directory under the module root's internal/
// and scenario/ trees (plus the root itself) that holds non-test Go
// files, as paths relative to the module root.
func modulePackages(t *testing.T) map[string]bool {
	t.Helper()
	pkgs := make(map[string]bool)
	hasGo := func(dir string) bool {
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") && !strings.HasSuffix(e.Name(), "_test.go") {
				return true
			}
		}
		return false
	}
	if hasGo("..") {
		pkgs[""] = true
	}
	for _, tree := range []string{"internal", "scenario"} {
		err := filepath.WalkDir(filepath.Join("..", tree), func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			if d.Name() == "testdata" {
				return filepath.SkipDir
			}
			if hasGo(path) {
				rel, err := filepath.Rel("..", path)
				if err != nil {
					return err
				}
				pkgs[filepath.ToSlash(rel)] = true
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return pkgs
}

// Every package is classified exactly once (packageLayers is a map, so
// at most once; here: at least once), and the table names no package
// that is gone. A new package fails this test until it has a layer.
func TestEveryPackageHasALayer(t *testing.T) {
	pkgs := modulePackages(t)
	for pkg := range pkgs {
		if packageLayers[pkg] == "" {
			t.Errorf("package %q has no layer in packageLayers (layers.go)", pkg)
		}
	}
	for pkg := range packageLayers {
		if !pkgs[pkg] {
			t.Errorf("packageLayers names %q, which is not a package of the module", pkg)
		}
	}
	reported := make(map[string]bool)
	for _, l := range cpuLayers {
		reported[l] = true
	}
	for pkg, layer := range packageLayers {
		switch layer {
		case layerCaller, layerOffline, "scenario", "sweep", "obs":
			// charged to the caller, or left in other.cpu_frac
		default:
			if !reported[layer] {
				t.Errorf("package %q maps to layer %q, which has no cpu_frac metric", pkg, layer)
			}
		}
	}
}

func TestStackLayer(t *testing.T) {
	const m = modulePath
	for _, c := range []struct {
		name  string
		stack []string // leaf first
		want  string
	}{
		{"scheduler push", []string{m + "/internal/eventsim.(*wheelSched).Push", m + "/internal/eventsim.(*Engine).AtCall", m + "/internal/sim.(*Port).Enqueue"}, "eventsim"},
		{"port", []string{m + "/internal/sim.(*Port).txComplete", m + "/internal/eventsim.(*Engine).Step"}, "sim.port"},
		{"port queue", []string{m + "/internal/sim.(*pktFIFO).push", m + "/internal/sim.(*Port).Enqueue"}, "sim.port"},
		{"port handler", []string{m + "/internal/sim.(*portTxDone).OnEvent"}, "sim.port"},
		{"tor forwarding", []string{m + "/internal/sim.(*OperaToR).Receive", m + "/internal/sim.(*Port).deliver"}, "sim.forward"},
		{"runtime charged to caller", []string{"runtime.memmove", m + "/internal/ndp.(*Endpoint).sendData"}, "ndp"},
		{"map access in routing", []string{"runtime.mapaccess1_fast64", m + "/internal/routing.(*Tables).PickUplink", m + "/internal/sim.(*OperaToR).Receive"}, "routing"},
		{"free list charged to caller", []string{m + "/internal/freelist.(*List[go.shape.*uint8]).Get", m + "/internal/eventsim.(*Engine).alloc"}, "eventsim"},
		{"generic type argument with a path", []string{m + "/internal/freelist.(*List[go.shape.*" + m + "/internal/ndp.sendFlow]).Put", m + "/internal/ndp.(*Endpoint).release"}, "ndp"},
		{"allocation", []string{"runtime.nextFreeFast", "runtime.mallocgc", "runtime.newobject", m + ".(*Cluster).addFlow"}, layerAlloc},
		{"gc assist inside allocation", []string{"runtime.scanobject", "runtime.gcDrainN", "runtime.gcAssistAlloc", "runtime.mallocgc", m + "/internal/rotorlb.(*rackAgent).pump"}, layerGC},
		{"background mark", []string{"runtime.greyobject", "runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, layerGC},
		{"write barrier", []string{"runtime.wbBufFlush1", "runtime.wbBufFlush", m + "/internal/sim.(*Port).Enqueue"}, layerGC},
		{"source pump", []string{"math/rand.(*Rand).Float64", m + "/internal/workload.(*poissonSource).Next", m + ".(*Cluster).AddSource.func1"}, "workload"},
		{"telemetry", []string{m + "/internal/telemetry.(*Sketch).Add", m + "/internal/sim.(*Metrics).FlowDone"}, "telemetry"},
		{"idle scheduler", []string{"runtime.futex", "runtime.findRunnable", "runtime.schedule"}, layerOther},
		{"the benchmark itself", []string{"time.Now", m + "/bench.(*timedSource).Next"}, layerOther},
	} {
		if got := stackLayer(c.stack); got != c.want {
			t.Errorf("%s: layer %q, want %q", c.name, got, c.want)
		}
	}
	shares := cpuShares([]stackSample{
		{funcs: []string{m + "/internal/eventsim.(*Engine).Step"}, count: 3},
		{funcs: []string{"runtime.gcBgMarkWorker"}, count: 1},
	})
	if shares["eventsim"] != 0.75 || shares[layerGC] != 0.25 {
		t.Errorf("shares = %v", shares)
	}
}
