package routing

// This file models the P4 forwarding-state footprint of §6.2 (Table 1).
//
// A straightforward Opera ruleset needs, per ToR:
//   - low-latency rules: one per (topology slice, non-local destination
//     rack) — N slices × (N-1) destinations;
//   - bulk rules: one per (topology slice, direct circuit) — each slice
//     offers u-1 usable direct circuits (one per non-transitioning switch).
//
// Total: N·(N-1) + N·(u-1) = N·(N+u-2) entries, which reproduces Table 1
// exactly for the paper's datacenter sizes.

// tofinoRuleCapacity is the approximate number of table entries the
// Barefoot Tofino 65x100GE switch of §6.2 accommodates, back-derived from
// the utilization column of Table 1 (1,461,600 entries = 85.9%).
const tofinoRuleCapacity = 1_700_000

// RuleCount returns the number of forwarding entries an Opera ToR needs for
// a datacenter with numRacks racks and uplinks rotor uplinks per ToR,
// assuming the ungrouped schedule (slices per cycle = numRacks).
func RuleCount(numRacks, uplinks int) int {
	if numRacks < 2 || uplinks < 1 {
		return 0
	}
	return numRacks*(numRacks-1) + numRacks*(uplinks-1)
}

// RuleUtilization returns RuleCount as a fraction of Tofino capacity.
func RuleUtilization(numRacks, uplinks int) float64 {
	return float64(RuleCount(numRacks, uplinks)) / float64(tofinoRuleCapacity)
}

// Table1Row is one row of Table 1.
type Table1Row struct {
	Racks       int
	Uplinks     int
	Entries     int
	Utilization float64 // fraction of switch capacity
}

// table1Sizes lists the (racks, uplinks) datacenter sizes evaluated in
// Table 1 of the paper.
var table1Sizes = []struct{ Racks, Uplinks int }{
	{108, 6},
	{252, 9},
	{520, 13},
	{768, 16},
	{1008, 18},
	{1200, 20},
}

// Table1 regenerates Table 1: entry counts and switch-memory utilization
// for Opera rulesets at increasing datacenter sizes.
func Table1() []Table1Row {
	rows := make([]Table1Row, len(table1Sizes))
	for i, sz := range table1Sizes {
		rows[i] = Table1Row{
			Racks:       sz.Racks,
			Uplinks:     sz.Uplinks,
			Entries:     RuleCount(sz.Racks, sz.Uplinks),
			Utilization: RuleUtilization(sz.Racks, sz.Uplinks),
		}
	}
	return rows
}

// countRules measures the actual forwarding-state footprint of a built
// Opera ruleset, per ToR, the way the paper's P4 program lays it out
// (§4.3/§6.2):
//
//   - one low-latency rule per (topology slice, non-local destination
//     rack) — the match key the P4 table uses, regardless of how many
//     equal-cost uplinks the action set carries;
//   - one bulk rule per (topology slice, directly connected rack).
//
// It exists to validate the closed-form RuleCount model against the real
// tables this repository builds.
func countRules(t *Tables, maps []PortMap) (lowLatency, bulk int) {
	for s := 0; s < t.Slices; s++ {
		src := 0 // per-ToR footprint: count rack 0's rules
		for dst := 0; dst < t.N; dst++ {
			if dst == src {
				continue
			}
			if t.Mask(s, src, dst) != 0 {
				lowLatency++
			}
		}
		for _, peer := range maps[s][src] {
			if peer >= 0 {
				bulk++
			}
		}
	}
	return lowLatency, bulk
}
