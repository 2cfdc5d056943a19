package experiments

import (
	"fmt"

	"github.com/opera-net/opera/internal/faults"
	"github.com/opera-net/opera/internal/topology"
)

// The fault-tolerance figures (11, 18–20) are pure functions of (topology,
// seed): each builds its topology once, with the arguments the simulator's
// builders pass, and runs the §5.5/Appendix E analysis for every (failure
// type, fraction) cell.

// FailureFractions are the x-axis points of Figures 11 and 18–20.
var FailureFractions = []float64{0.01, 0.025, 0.05, 0.10, 0.20, 0.40}

// SwitchFailureFractions are the circuit-switch points (the paper sweeps
// to 50%).
var SwitchFailureFractions = []float64{0.01, 0.025, 0.05, 0.10, 0.20, 0.50}

// Fig11FaultTolerance regenerates Figure 11 (connectivity loss) and
// Figure 18 (path stretch) for Opera under link, ToR and circuit-switch
// failures. Trials averages over seeds.
func Fig11FaultTolerance(s Scale, trials int) ([]Table, error) {
	if trials <= 0 {
		trials = 3
	}
	conn := Table{Name: fmt.Sprintf("fig11_connectivity_%s", s.Name),
		Header: []string{"failure_type", "fraction", "worst_slice_loss", "across_all_slices_loss"}}
	paths := Table{Name: fmt.Sprintf("fig18_path_stretch_%s", s.Name),
		Header: []string{"failure_type", "fraction", "avg_path", "worst_path"}}

	o, err := topology.NewOpera(topology.Config{
		NumRacks: s.Racks, HostsPerRack: s.HostsPerRack, NumSwitches: s.Uplinks, Seed: s.Seed,
	})
	if err != nil {
		return nil, err
	}
	// Each sweep fails one element kind: its fraction goes in that slot
	// of OperaFailures' (links, ToRs, switches) arguments.
	for slot, sweep := range []struct {
		kind  string
		fracs []float64
	}{{"links", FailureFractions}, {"tors", FailureFractions}, {"switches", SwitchFailureFractions}} {
		for _, frac := range sweep.fracs {
			var f [3]float64
			f[slot] = frac
			var worst, union, avg float64
			maxPath := 0
			for tr := 0; tr < trials; tr++ {
				r := faults.OperaFailures(o, f[0], f[1], f[2], int64(tr)*31+7)
				worst += r.WorstSliceLoss
				union += r.UnionLoss
				avg += r.AvgPath
				if r.MaxPath > maxPath {
					maxPath = r.MaxPath
				}
			}
			n := float64(trials)
			conn.Add(sweep.kind, frac, worst/n, union/n)
			paths.Add(sweep.kind, frac, avg/n, maxPath)
		}
	}
	return []Table{conn, paths}, nil
}

// staticFaultFigure fills a Fig19/Fig20-style table: for every fraction
// and failure type on a static topology, loss and path stretch over trials.
func staticFaultFigure(t *Table, kinds []string, trials int,
	analyze func(kind string, frac float64, trial int) faults.StaticResult) {
	for _, frac := range FailureFractions {
		for _, kind := range kinds {
			var loss, avg float64
			maxPath := 0
			for tr := 0; tr < trials; tr++ {
				r := analyze(kind, frac, tr)
				loss += r.Loss
				avg += r.AvgPath
				if r.MaxPath > maxPath {
					maxPath = r.MaxPath
				}
			}
			n := float64(trials)
			t.Add(kind, frac, loss/n, avg/n, maxPath)
		}
	}
}

// Fig19ClosFailures regenerates Figure 19: the 3:1 folded Clos under link
// and switch failures.
func Fig19ClosFailures(s Scale, trials int) ([]Table, error) {
	if trials <= 0 {
		trials = 3
	}
	t := Table{Name: fmt.Sprintf("fig19_clos_failures_%s", s.Name),
		Header: []string{"failure_type", "fraction", "loss", "avg_path", "worst_path"}}
	c, err := topology.NewFoldedClos(s.ClosK, s.ClosF)
	if err != nil {
		return nil, err
	}
	staticFaultFigure(&t, []string{"links", "switches"}, trials,
		func(kind string, frac float64, tr int) faults.StaticResult {
			seed := int64(tr)*17 + 3
			if kind == "links" {
				return faults.ClosFailures(c, frac, 0, seed)
			}
			return faults.ClosFailures(c, 0, frac, seed)
		})
	return []Table{t}, nil
}

// Fig20ExpanderFailures regenerates Figure 20: the u=7 expander under
// link and ToR failures.
func Fig20ExpanderFailures(s Scale, trials int) ([]Table, error) {
	if trials <= 0 {
		trials = 3
	}
	t := Table{Name: fmt.Sprintf("fig20_expander_failures_%s", s.Name),
		Header: []string{"failure_type", "fraction", "loss", "avg_path", "worst_path"}}
	e, err := topology.NewExpander(s.ExpRacks, s.ExpHosts, s.ExpDegree, s.Seed)
	if err != nil {
		return nil, err
	}
	staticFaultFigure(&t, []string{"links", "tors"}, trials,
		func(kind string, frac float64, tr int) faults.StaticResult {
			seed := int64(tr)*13 + 5
			if kind == "links" {
				return faults.ExpanderFailures(e, frac, 0, seed)
			}
			return faults.ExpanderFailures(e, 0, frac, seed)
		})
	return []Table{t}, nil
}
