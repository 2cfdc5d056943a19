package experiments

import (
	"fmt"

	"github.com/opera-net/opera/internal/faults"
	"github.com/opera-net/opera/internal/topology"
)

// The fault-tolerance figures (11, 18–20) are pure functions of (topology,
// seed): each builds its topology once, with the arguments the simulator's
// builders pass, and runs the §5.5/Appendix E analysis for every (failure
// type, fraction) cell. A failure type fails one element kind: its
// fraction goes in that kind's slot of the analysis's fraction arguments.

// FailureFractions are the x-axis points of Figures 11 and 18–20.
var FailureFractions = []float64{0.01, 0.025, 0.05, 0.10, 0.20, 0.40}

// SwitchFailureFractions are the circuit-switch points (the paper sweeps
// to 50%).
var SwitchFailureFractions = []float64{0.01, 0.025, 0.05, 0.10, 0.20, 0.50}

// Fig11FaultTolerance regenerates Figure 11 (connectivity loss) and
// Figure 18 (path stretch) for Opera under link, ToR and circuit-switch
// failures, averaged over trials seeds (meanOver).
func Fig11FaultTolerance(s Scale, trials int) ([]Table, error) {
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
	for slot, sweep := range []struct {
		kind  string
		fracs []float64
	}{{"links", FailureFractions}, {"tors", FailureFractions}, {"switches", SwitchFailureFractions}} {
		for _, frac := range sweep.fracs {
			var f [3]float64
			f[slot] = frac
			r := meanOver(trials, func(tr int) faults.Result {
				return faults.OperaFailures(o, f[0], f[1], f[2], int64(tr)*31+7)
			})
			conn.Add(sweep.kind, frac, r.WorstSliceLoss, r.UnionLoss)
			paths.Add(sweep.kind, frac, r.AvgPath, r.MaxPath)
		}
	}
	return []Table{conn, paths}, nil
}

// meanOver runs trials seeds (3 if trials <= 0) and returns the mean of
// their losses and average paths and the largest of their worst paths.
func meanOver(trials int, run func(trial int) faults.Result) (mean faults.Result) {
	if trials <= 0 {
		trials = 3
	}
	for tr := range trials {
		r := run(tr)
		mean.WorstSliceLoss += r.WorstSliceLoss
		mean.UnionLoss += r.UnionLoss
		mean.AvgPath += r.AvgPath
		mean.MaxPath = max(mean.MaxPath, r.MaxPath)
	}
	n := float64(trials)
	mean.WorstSliceLoss /= n
	mean.UnionLoss /= n
	mean.AvgPath /= n
	return mean
}

// staticFaultFigure fills a Fig19/Fig20-style table: for every fraction
// and failure type on a static topology, loss and path stretch over trials.
// A static fabric is a one-slice schedule, so its loss is the worst
// slice's.
func staticFaultFigure(t *Table, kinds [2]string, trials int, analyze func(f [2]float64, trial int) faults.Result) {
	for _, frac := range FailureFractions {
		for slot, kind := range kinds {
			var f [2]float64
			f[slot] = frac
			r := meanOver(trials, func(tr int) faults.Result { return analyze(f, tr) })
			t.Add(kind, frac, r.WorstSliceLoss, r.AvgPath, r.MaxPath)
		}
	}
}

// Fig19ClosFailures regenerates Figure 19: the 3:1 folded Clos under link
// and switch failures.
func Fig19ClosFailures(s Scale, trials int) ([]Table, error) {
	t := Table{Name: fmt.Sprintf("fig19_clos_failures_%s", s.Name),
		Header: []string{"failure_type", "fraction", "loss", "avg_path", "worst_path"}}
	c, err := topology.NewFoldedClos(s.ClosK, s.ClosF)
	if err != nil {
		return nil, err
	}
	staticFaultFigure(&t, [2]string{"links", "switches"}, trials, func(f [2]float64, tr int) faults.Result {
		return faults.ClosFailures(c, f[0], f[1], int64(tr)*17+3)
	})
	return []Table{t}, nil
}

// Fig20ExpanderFailures regenerates Figure 20: the u=7 expander under
// link and ToR failures.
func Fig20ExpanderFailures(s Scale, trials int) ([]Table, error) {
	t := Table{Name: fmt.Sprintf("fig20_expander_failures_%s", s.Name),
		Header: []string{"failure_type", "fraction", "loss", "avg_path", "worst_path"}}
	e, err := topology.NewExpander(s.ExpRacks, s.ExpHosts, s.ExpDegree, s.Seed)
	if err != nil {
		return nil, err
	}
	staticFaultFigure(&t, [2]string{"links", "tors"}, trials, func(f [2]float64, tr int) faults.Result {
		return faults.ExpanderFailures(e, f[0], f[1], int64(tr)*13+5)
	})
	return []Table{t}, nil
}
