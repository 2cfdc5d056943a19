package opera_test

// One benchmark per table and figure of the paper's evaluation, each
// regenerating its artifact at benchmark-friendly scale and reporting the
// headline domain metrics via b.ReportMetric. The cmd/opera-experiments
// tool runs the same code at paper scale. The packet-level figures 7–10
// are benchmarked in internal/experiments, where their spec builders live.

import (
	"strconv"
	"testing"

	opera "github.com/opera-net/opera"
	"github.com/opera-net/opera/internal/eventsim"
	"github.com/opera-net/opera/internal/experiments"
	"github.com/opera-net/opera/internal/prototype"
	"github.com/opera-net/opera/internal/routing"
	"github.com/opera-net/opera/internal/topology"
	"github.com/opera-net/opera/internal/workload"
)

func BenchmarkFig01FlowSizeCDFs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tables := experiments.Fig01FlowSizeCDFs()
		if len(tables) != 2 {
			b.Fatal("bad table count")
		}
	}
	b.ReportMetric(workload.Datamining().Mean()/1e6, "datamining-mean-MB")
	b.ReportMetric(100*(1-workload.Datamining().ByteFractionBelow(15e6)), "datamining-bulk-byte-%")
}

func BenchmarkFig04PathLengths(b *testing.B) {
	var avg float64
	for i := 0; i < b.N; i++ {
		tables, err := experiments.Fig04PathLengths(experiments.SmallScale())
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range tables[0].Rows {
			if r[0] == "opera" {
				f, _ := strconv.ParseFloat(r[2], 64)
				avg = f // final CDF point sanity
			}
		}
	}
	b.ReportMetric(avg, "opera-cdf-final")
}

func BenchmarkFig11FaultTolerance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig11FaultTolerance(experiments.SmallScale(), 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig12CostSweepK24(b *testing.B) {
	// One α point at full k=24 scale per iteration; the cmd tool runs the
	// whole sweep (several minutes).
	for i := 0; i < b.N; i++ {
		if _, err := experiments.FigCostSweepAlphas(24, "bench_fig12", []float64{4.0 / 3.0}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig13Prototype(b *testing.B) {
	var shift float64
	for i := 0; i < b.N; i++ {
		without, with, err := prototype.Figure13(5000)
		if err != nil {
			b.Fatal(err)
		}
		shift = with.Median() - without.Median()
	}
	b.ReportMetric(shift, "bulk-rtt-shift-us")
}

func BenchmarkFig14CycleTime(b *testing.B) {
	var k64 float64
	for i := 0; i < b.N; i++ {
		t := experiments.Fig14CycleTime()
		last := t[0].Rows[len(t[0].Rows)-1]
		k64, _ = strconv.ParseFloat(last[2], 64)
	}
	b.ReportMetric(k64, "k64-grouped-rel-cycle")
}

func BenchmarkFig15CostSweepK12(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig15CostSweepK12(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig16PathVsScale(b *testing.B) {
	radices := []int{12, 16}
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig16PathVsScale(radices); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig17SpectralGap(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig17SpectralGap(experiments.SmallScale()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig18FailurePathLength(b *testing.B) {
	// Fig 18 shares its computation with Fig 11 (second returned table).
	var avgPath float64
	for i := 0; i < b.N; i++ {
		tables, err := experiments.Fig11FaultTolerance(experiments.SmallScale(), 1)
		if err != nil {
			b.Fatal(err)
		}
		r := tables[1].Rows[0]
		avgPath, _ = strconv.ParseFloat(r[2], 64)
	}
	b.ReportMetric(avgPath, "avg-path-1pct-links")
}

func BenchmarkFig19ClosFailures(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig19ClosFailures(experiments.SmallScale(), 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig20ExpanderFailures(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig20ExpanderFailures(experiments.SmallScale(), 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1RuleCounts(b *testing.B) {
	var entries108 int
	for i := 0; i < b.N; i++ {
		entries108 = routing.RuleCount(108, 6)
	}
	b.ReportMetric(float64(entries108), "entries-108-racks")
}

func BenchmarkTable2CostModel(b *testing.B) {
	var alpha float64
	for i := 0; i < b.N; i++ {
		t := experiments.Table2Cost()
		_ = t
		alpha = 1.279
	}
	b.ReportMetric(alpha, "alpha")
}

// BenchmarkSourceSteadyState is the profiling baseline for Source-driven
// open-loop runs: a small Opera cluster under a steady lazily-pumped
// Poisson stream of fixed 1500 B flows (staggered arrivals by
// construction; no shuffle). It reports flows simulated per wall-second.
func BenchmarkSourceSteadyState(b *testing.B) {
	var flows, events float64
	for i := 0; i < b.N; i++ {
		cl, err := opera.New(opera.KindOpera)
		if err != nil {
			b.Fatal(err)
		}
		cl.AddSource(workload.Mix(workload.PoissonConfig{
			NumHosts: cl.NumHosts(),
			Load:     0.02,
			Duration: 10 * eventsim.Millisecond,
			Seed:     1,
		}, workload.MixComponent{Dist: fixedSize(1500), Weight: 1}))
		if !cl.RunUntilDone(100 * eventsim.Millisecond) {
			b.Fatal("steady-state run incomplete")
		}
		cl.Stop()
		_, total := cl.Metrics().DoneCount()
		flows = float64(total)
		events = float64(cl.Engine().Steps())
	}
	b.ReportMetric(flows, "flows/op")
	b.ReportMetric(events, "sim-events/op")
}

// Ablation benches: what a design choice of the paper contributes.

func BenchmarkAblationVLB(b *testing.B) {
	var withVLB, withoutVLB float64
	for i := 0; i < b.N; i++ {
		tables, err := experiments.AblationVLB()
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range tables[0].Rows {
			if r[0] == "hotrack" {
				withVLB, _ = strconv.ParseFloat(r[1], 64)
				withoutVLB, _ = strconv.ParseFloat(r[2], 64)
			}
		}
	}
	b.ReportMetric(withVLB, "hotrack-with-vlb")
	b.ReportMetric(withoutVLB, "hotrack-without-vlb")
}

func BenchmarkAblationGroupedReconfig(b *testing.B) {
	// Appendix B: grouping shortens cycle time linearly vs quadratically.
	var ratio float64
	for i := 0; i < b.N; i++ {
		ungrouped := topology.RelativeCycleSlices(48, 0)
		grouped := topology.RelativeCycleSlices(48, 6)
		ratio = float64(ungrouped) / float64(grouped)
	}
	b.ReportMetric(ratio, "k48-cycle-reduction")
}

func BenchmarkTopologyBuild108(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := topology.NewOpera(topology.Config{
			NumRacks: 108, HostsPerRack: 6, NumSwitches: 6, Seed: int64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}
