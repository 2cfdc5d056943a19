package experiments

import (
	"strconv"
	"testing"

	"github.com/opera-net/opera/internal/eventsim"
)

// Benchmarks of the packet-level figures 7–10, each a shrunk copy of the
// figure's small-scale specs, reporting a headline metric where the
// figure has one.

func BenchmarkFig07Datamining(b *testing.B) {
	specs := tinyPoisson(fig07Specs(SmallScale()), 0.10, 5*eventsim.Millisecond, 5_000_000)
	for i := 0; i < b.N; i++ {
		if _, err := poissonFigure("bench_fig07", specs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig08Shuffle(b *testing.B) {
	specs := tinyShuffle(fig08Specs(SmallScale()), 50_000)
	var operaP99 float64
	for i := 0; i < b.N; i++ {
		tables, err := shuffleTables("small", specs, mustRun(b, specs))
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range tables[1].Rows {
			if r[0] == "opera" {
				operaP99, _ = strconv.ParseFloat(r[1], 64)
			}
		}
	}
	b.ReportMetric(operaP99, "opera-p99-fct-ms")
}

func BenchmarkFig09Websearch(b *testing.B) {
	specs := tinyPoisson(fig09Specs(SmallScale()), 0.05, 5*eventsim.Millisecond, SmallScale().MaxFlowBytes)
	for i := 0; i < b.N; i++ {
		if _, err := poissonFigure("bench_fig09", specs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig10Mixed(b *testing.B) {
	specs := tinyMixed(fig10Specs(SmallScale()), 0.05, 10*eventsim.Millisecond)
	var operaTput float64
	for i := 0; i < b.N; i++ {
		tables, err := mixedTables("small", specs, mustRun(b, specs))
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range tables[0].Rows {
			if r[0] == "opera" {
				operaTput, _ = strconv.ParseFloat(r[2], 64)
			}
		}
	}
	b.ReportMetric(operaTput, "opera-norm-tput")
}
