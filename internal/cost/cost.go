// Package cost implements the cost-normalization model of Appendix A: the
// α parameter relating an Opera "port" (ToR port + transceiver + fiber +
// rotor-switch port) to a static network "port" (ToR port + transceiver +
// fiber), the component cost table behind Table 2, and the cost-equivalent
// sizing formulas used by the Figure 12/15/16 sweeps.
package cost

import "math"

// Component prices in dollars, from Appendix A Table 2 (commodity prices
// from [29] plus rotor-switch parts amortized over 512-port switches).
const (
	SRTransceiver  = 80.0
	OpticalFiber   = 45.0 // $0.3/m × 150 m nominal run
	ToRPort        = 90.0
	FiberArray     = 30.0 // † per duplex fiber port
	OpticalLenses  = 15.0 // †
	BeamSteering   = 5.0  // †
	OpticalMapping = 10.0 // †
)

// Table2Row is one line of Table 2.
type Table2Row struct {
	Component string
	Static    float64
	Opera     float64
}

// Table2 reproduces the per-port cost comparison of Appendix A.
func Table2() []Table2Row {
	return []Table2Row{
		{"SR transceiver", SRTransceiver, SRTransceiver},
		{"Optical fiber ($0.3/m)", OpticalFiber, OpticalFiber},
		{"ToR port", ToRPort, ToRPort},
		{"Optical fiber array", 0, FiberArray},
		{"Optical lenses", 0, OpticalLenses},
		{"Beam-steering element", 0, BeamSteering},
		{"Optical mapping", 0, OpticalMapping},
	}
}

// StaticPortCost returns the static network per-port total ($215).
func StaticPortCost() float64 {
	return SRTransceiver + OpticalFiber + ToRPort
}

// OperaPortCost returns the Opera per-port total ($275).
func OperaPortCost() float64 {
	return StaticPortCost() + FiberArray + OpticalLenses + BeamSteering + OpticalMapping
}

// EstimatedAlpha returns Opera's estimated port-cost ratio (≈1.3).
func EstimatedAlpha() float64 { return OperaPortCost() / StaticPortCost() }

// Tiers is the folded-Clos tier count T used throughout Appendix A.
const Tiers = 3

// Oversubscription returns the folded-Clos oversubscription factor F that
// makes a T=3 Clos cost-equivalent at core-port premium α: α = 2(T-1)/F.
func Oversubscription(alpha float64) float64 {
	return 2 * (Tiers - 1) / alpha
}

// Hosts returns the host count H of the cost-normalizing three-tier folded
// Clos with switch radix k at premium α: H = (4F/(F+1))·(k/2)³.
func Hosts(k int, alpha float64) int {
	f := Oversubscription(alpha)
	h := 4 * f / (f + 1) * math.Pow(float64(k)/2, Tiers)
	return int(h + 0.5)
}

// ExpanderUplinks returns the per-ToR fabric degree u of the
// cost-equivalent static expander: α = u/(k-u) ⇒ u = αk/(1+α), rounded to
// the nearest integer.
func ExpanderUplinks(k int, alpha float64) int {
	u := alpha * float64(k) / (1 + alpha)
	return int(u + 0.5)
}

// Equivalent describes the three cost-equivalent networks at (k, α).
type Equivalent struct {
	K     int
	Alpha float64
	Hosts int

	// Folded Clos with oversubscription F.
	ClosF float64

	// Expander with u fabric ports and d = k-u hosts per ToR.
	ExpanderU, ExpanderD, ExpanderRacks int

	// Opera with d = u = k/2.
	OperaHostsPerRack, OperaRacks int
}

// Equivalents derives the cost-equivalent family at radix k and premium α
// (Appendix A's comparison method). Each network's rack count is rounded
// to the nearest value satisfying its structural constraints (expander:
// n·u even for a u-regular graph; Opera: N even and divisible by the k/2
// rotor switches), so the host populations differ by at most a rack or
// two — exactly as the paper compares 648-host Clos/Opera against a
// 650-host expander.
func Equivalents(k int, alpha float64) Equivalent {
	e := Equivalent{K: k, Alpha: alpha}
	e.ClosF = Oversubscription(alpha)
	h := Hosts(k, alpha)
	e.Hosts = h
	e.ExpanderU = ExpanderUplinks(k, alpha)
	e.ExpanderD = k - e.ExpanderU
	u := e.ExpanderU
	e.ExpanderRacks = nearestValid(roundDiv(h, e.ExpanderD), func(n int) bool {
		return n > u+1 && n*u%2 == 0
	})
	operaD := k / 2
	c := k / 2
	e.OperaHostsPerRack = operaD
	e.OperaRacks = nearestValid(roundDiv(h, operaD), func(n int) bool {
		return n > 0 && n%2 == 0 && n%c == 0
	})
	return e
}

func roundDiv(a, b int) int { return (a + b/2) / b }

// nearestValid returns the value closest to x satisfying ok, searching
// outward.
func nearestValid(x int, ok func(int) bool) int {
	for delta := 0; ; delta++ {
		if x-delta > 0 && ok(x-delta) {
			return x - delta
		}
		if ok(x + delta) {
			return x + delta
		}
	}
}
