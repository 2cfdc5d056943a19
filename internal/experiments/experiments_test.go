package experiments

import (
	"bytes"
	"encoding/csv"
	"encoding/gob"
	"reflect"
	"strings"
	"testing"

	"github.com/opera-net/opera/internal/eventsim"
	"github.com/opera-net/opera/scenario"
)

func TestTableCSV(t *testing.T) {
	tb := Table{Name: "x", Header: []string{"a", "b"}}
	tb.Add(1, 2.5)
	tb.Add("s", 0.0000012)
	out := tb.CSV()
	if !strings.HasPrefix(out, "a,b\n1,2.5\n") {
		t.Fatalf("csv = %q", out)
	}
	if err := tb.WriteCSV(t.TempDir()); err != nil {
		t.Fatal(err)
	}
}

// A cell with a comma in it (a sweep cell's err, say) is quoted: the row
// reads back at the header's width with the cell intact.
func TestTableCSVQuotesCommaCell(t *testing.T) {
	tb := Table{Name: "x", Header: []string{"name", "err"}}
	cell := `inject(link(rack=99,up=2),down): rack 99 out of range [0,16) "q"`
	tb.Add("a", cell)
	recs, err := csv.NewReader(strings.NewReader(tb.CSV())).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || len(recs[1]) != len(tb.Header) || recs[1][1] != cell {
		t.Fatalf("read back %q, want the header then [a %q]", recs, cell)
	}
}

func TestFig01(t *testing.T) {
	tables := Fig01FlowSizeCDFs()
	if len(tables) != 2 {
		t.Fatalf("%d tables", len(tables))
	}
	if len(tables[0].Rows) < 30 {
		t.Fatalf("flow CDF rows = %d", len(tables[0].Rows))
	}
}

func TestFig04SmallScale(t *testing.T) {
	tables, err := Fig04PathLengths(SmallScale())
	if err != nil {
		t.Fatal(err)
	}
	rows := tables[0].Rows
	nets := map[string]bool{}
	for _, r := range rows {
		nets[r[0]] = true
	}
	if len(nets) != 3 {
		t.Fatalf("networks = %v", nets)
	}
	pinTinyGolden(t, tables)
}

func TestFig14(t *testing.T) {
	tables := Fig14CycleTime()
	first := tables[0].Rows[0]
	if first[0] != "12" || first[1] != "1" || first[2] != "1" {
		t.Fatalf("k=12 baseline row = %v", first)
	}
	// Grouped scaling is linear: k=48 grouped = 432/108 = 4.
	for _, r := range tables[0].Rows {
		if r[0] == "48" && r[2] != "4" {
			t.Fatalf("k=48 grouped = %v, want 4", r[2])
		}
	}
}

func TestFig17SmallScale(t *testing.T) {
	s := SmallScale()
	// Spectral analysis needs u >= 5-ish graphs to be meaningful but runs
	// at any scale; just verify structure.
	tables, err := Fig17SpectralGap(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables[0].Rows) < s.Racks {
		t.Fatalf("rows = %d, want >= one per slice", len(tables[0].Rows))
	}
	pinTinyGolden(t, tables)
}

// TestFig16Small runs Figure 16 at its two smallest radices; the default
// five take ~16 s.
func TestFig16Small(t *testing.T) {
	tables, err := Fig16PathVsScale([]int{12, 16})
	if err != nil {
		t.Fatal(err)
	}
	if len(tables[0].Rows) == 0 {
		t.Fatal("no rows")
	}
	pinTinyGolden(t, tables)
}

func TestTables1And2(t *testing.T) {
	t1 := Table1RuleCounts()
	if len(t1[0].Rows) != 6 {
		t.Fatalf("table1 rows = %d", len(t1[0].Rows))
	}
	if t1[0].Rows[0][2] != "12096" {
		t.Fatalf("table1 first entry count = %v", t1[0].Rows[0])
	}
	t2 := Table2Cost()
	found := false
	for _, r := range t2[0].Rows {
		if r[0] == "Total" && r[1] == "215" && r[2] == "275" {
			found = true
		}
	}
	if !found {
		t.Fatal("table2 totals missing")
	}
}

func TestFig11SmallScale(t *testing.T) {
	tables, err := Fig11FaultTolerance(SmallScale(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 2 {
		t.Fatalf("%d tables", len(tables))
	}
	// No-loss regime at 1% links.
	for _, r := range tables[0].Rows {
		if r[0] == "links" && r[1] == "0.01" && r[3] != "0" {
			t.Fatalf("1%% link failures should lose nothing, got %v", r)
		}
	}
}

func TestFig19And20SmallScale(t *testing.T) {
	clos, err := Fig19ClosFailures(SmallScale(), 1)
	if err != nil {
		t.Fatal(err)
	}
	expander, err := Fig20ExpanderFailures(SmallScale(), 1)
	if err != nil {
		t.Fatal(err)
	}
	pinTinyGolden(t, append(clos, expander...))
}

func TestFig13(t *testing.T) {
	tables, err := Fig13Prototype(2000)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables[0].Rows) < 100 {
		t.Fatalf("rows = %d", len(tables[0].Rows))
	}
	pinTinyGolden(t, tables)
}

func TestFig15FluidSweep(t *testing.T) {
	tables, err := Fig15CostSweepK12()
	if err != nil {
		t.Fatal(err)
	}
	rows := tables[0].Rows
	if len(rows) != 3*len(AlphaSweep) {
		t.Fatalf("rows = %d", len(rows))
	}
	pinTinyGolden(t, tables)
}

// tinyPoisson shrinks a Poisson FCT figure's specs to one cell per
// network, at load over window with flows capped at maxFlowBytes; each run
// drains for the figure's usual multiple of its window.
func tinyPoisson(specs []scenario.Spec, load float64, window eventsim.Time, maxFlowBytes int64) []scenario.Spec {
	specs = firstPerNetwork(specs)
	for i := range specs {
		src := &specs[i].Sources[0]
		specs[i].Duration = specs[i].Duration / src.Window * window
		src.Load, src.Window, src.MaxFlowBytes = load, window, maxFlowBytes
	}
	return specs
}

// tinyMixed shrinks Figure 10's specs to one cell per network: websearch
// at load, with both sources and the run lasting window.
func tinyMixed(specs []scenario.Spec, load float64, window eventsim.Time) []scenario.Spec {
	specs = firstPerNetwork(specs)
	for i := range specs {
		sp := &specs[i]
		sp.Duration, sp.Sources[0].Window, sp.Sources[1].Window, sp.Sources[1].Load = window, window, window, load
	}
	return specs
}

// tinyShuffle shrinks Figure 8's shuffle flows to flowBytes.
func tinyShuffle(specs []scenario.Spec, flowBytes int64) []scenario.Spec {
	for i := range specs {
		specs[i].Sources[0].FlowBytes = flowBytes
	}
	return specs
}

// firstPerNetwork keeps each network's first cell of a figure's specs.
func firstPerNetwork(specs []scenario.Spec) []scenario.Spec {
	var out []scenario.Spec
	for i, sp := range specs {
		if i == 0 || sp.Network != specs[i-1].Network {
			out = append(out, sp)
		}
	}
	return out
}

// mustRun runs specs, as the figure runners do.
func mustRun(t testing.TB, specs []scenario.Spec) []scenario.Result {
	t.Helper()
	results, err := run(specs)
	if err != nil {
		t.Fatal(err)
	}
	return results
}

func TestFig08SmallShuffle(t *testing.T) {
	if testing.Short() {
		t.Skip("packet-level experiment")
	}
	specs := tinyShuffle(fig08Specs(SmallScale()), 50_000)
	tables, err := shuffleTables("small", specs, mustRun(t, specs))
	if err != nil {
		t.Fatal(err)
	}
	// Summary: every network completes nearly all flows, and Opera's tax
	// is near zero (all-direct).
	sum := tables[1]
	for _, r := range sum.Rows {
		if r[2] == "0" {
			t.Fatalf("network %s completed nothing", r[0])
		}
	}
	pinTinyGolden(t, tables)
}

func TestFig10MixedTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("packet-level experiment")
	}
	specs := tinyMixed(fig10Specs(SmallScale()), 0.05, 5*eventsim.Millisecond)
	tables, err := mixedTables("small", specs, mustRun(t, specs))
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 2 {
		t.Fatalf("%d tables", len(tables))
	}
	if len(tables[0].Rows) != 3 {
		t.Fatalf("throughput rows = %d, want one per network", len(tables[0].Rows))
	}
	// The by-tag breakdown carries both workload components per cell.
	if len(tables[1].Rows) != 6 {
		t.Fatalf("by-tag rows = %d, want networks × tags", len(tables[1].Rows))
	}
	for _, r := range tables[1].Rows {
		if r[2] != "shuffle" && r[2] != "websearch" {
			t.Fatalf("unexpected tag %q", r[2])
		}
	}
	pinTinyGolden(t, tables)
}

// A figure needs nothing that does not cross the process boundary: a tiny
// fig10's Results, gob-encoded as a sweep worker's frames carry them and
// decoded again, reduce to the same tables as the Results straight from
// the runner — whatever gob makes of empty slices and maps.
func TestFig10ReducesDecodedResults(t *testing.T) {
	if testing.Short() {
		t.Skip("packet-level experiment")
	}
	specs := tinyMixed(fig10Specs(SmallScale()), 0.05, 5*eventsim.Millisecond)
	results := mustRun(t, specs)
	direct, err := mixedTables("small", specs, results)
	if err != nil {
		t.Fatal(err)
	}
	var wire bytes.Buffer
	if err := gob.NewEncoder(&wire).Encode(results); err != nil {
		t.Fatal(err)
	}
	var decoded []scenario.Result
	if err := gob.NewDecoder(&wire).Decode(&decoded); err != nil {
		t.Fatal(err)
	}
	got, err := mixedTables("small", specs, decoded)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, direct) {
		t.Fatalf("tables from decoded Results differ:\n%v\nwant\n%v", got, direct)
	}
}

func TestFig07TinyRun(t *testing.T) {
	if testing.Short() {
		t.Skip("packet-level experiment")
	}
	tables, err := poissonFigure("fig07_datamining_fct_small",
		tinyPoisson(fig07Specs(SmallScale()), 0.05, 5*eventsim.Millisecond, 2_000_000))
	if err != nil {
		t.Fatal(err)
	}
	if len(tables[0].Rows) == 0 {
		t.Fatal("no FCT rows")
	}
	pinTinyGolden(t, tables)
}

func TestFig09TinyRun(t *testing.T) {
	if testing.Short() {
		t.Skip("packet-level experiment")
	}
	tables, err := poissonFigure("fig09_websearch_fct_small",
		tinyPoisson(fig09Specs(SmallScale()), 0.05, 5*eventsim.Millisecond, 2_000_000))
	if err != nil {
		t.Fatal(err)
	}
	if len(tables[0].Rows) == 0 {
		t.Fatal("no FCT rows")
	}
	pinTinyGolden(t, tables)
}
