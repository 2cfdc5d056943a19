package cost

import (
	"math"
	"testing"
	"testing/quick"
)

func TestTable2(t *testing.T) {
	if got := StaticPortCost(); got != 215 {
		t.Fatalf("static port = $%v, want $215", got)
	}
	if got := OperaPortCost(); got != 275 {
		t.Fatalf("opera port = $%v, want $275", got)
	}
	// Appendix A: α ≈ 1.3.
	if a := EstimatedAlpha(); math.Abs(a-1.2790697674418605) > 1e-12 {
		t.Fatalf("alpha = %v", a)
	}
	var static, opera float64
	for _, row := range Table2() {
		static += row.Static
		opera += row.Opera
	}
	if static != StaticPortCost() || opera != OperaPortCost() {
		t.Fatal("Table 2 rows do not sum to totals")
	}
}

func TestOversubscription(t *testing.T) {
	// The paper's central comparison: 3:1 Clos ⇒ α = 4/3.
	if f := Oversubscription(4.0 / 3.0); math.Abs(f-3) > 1e-12 {
		t.Fatalf("F(4/3) = %v, want 3", f)
	}
	// α = 1 ⇒ F = 4 (fully "free" core ports buy a 4:1 Clos... i.e. more
	// oversubscribed at equal cost), α = 4 ⇒ F = 1 (fully provisioned).
	if f := Oversubscription(4); f != 1 {
		t.Fatalf("F(4) = %v", f)
	}
}

func TestHostsFormula(t *testing.T) {
	// k=12, α=4/3 (F=3): H = 3·216 = 648 — the paper's network.
	if h := Hosts(12, 4.0/3.0); h != 648 {
		t.Fatalf("H(12, 4/3) = %d, want 648", h)
	}
	// k=24 same α: 5184 hosts (§5.6).
	if h := Hosts(24, 4.0/3.0); h != 5184 {
		t.Fatalf("H(24, 4/3) = %d, want 5184", h)
	}
}

func TestExpanderUplinks(t *testing.T) {
	// k=12, α=4/3: u = (4/3)·12/(7/3) = 48/7 ≈ 6.86 → 7, the paper's u=7
	// expander with d=5 (650 hosts over 130 racks).
	if u := ExpanderUplinks(12, 4.0/3.0); u != 7 {
		t.Fatalf("u(12, 4/3) = %d, want 7", u)
	}
	if u := ExpanderUplinks(24, 1.0); u != 12 {
		t.Fatalf("u(24, 1) = %d, want 12", u)
	}
}

func TestEquivalentsPaperFamily(t *testing.T) {
	e := Equivalents(12, 4.0/3.0)
	if e.ExpanderU != 7 || e.ExpanderD != 5 {
		t.Fatalf("expander %d:%d, want 7:5", e.ExpanderU, e.ExpanderD)
	}
	if e.OperaHostsPerRack != 6 {
		t.Fatalf("opera d = %d", e.OperaHostsPerRack)
	}
	// The paper's family: 648-host Opera (108 racks) vs 650-host u=7
	// expander (130 racks).
	if e.Hosts != 648 || e.ExpanderRacks != 130 || e.OperaRacks != 108 {
		t.Fatalf("equivalents = %+v", e)
	}
	if math.Abs(e.ClosF-3) > 1e-12 {
		t.Fatalf("F = %v", e.ClosF)
	}
}

// Property: the cost-equivalent family is internally consistent for any
// reasonable (k, α): valid expander parity, Opera divisibility, and host
// counts within one rack of nominal.
func TestEquivalentsProperty(t *testing.T) {
	f := func(rawK, rawA uint8) bool {
		k := 8 + 2*int(rawK%25)                // 8..56 even
		alpha := 1.0 + float64(rawA%100)/100.0 // 1.00..1.99
		e := Equivalents(k, alpha)
		if e.ExpanderU <= 0 || e.ExpanderU >= k {
			return false
		}
		if e.ExpanderRacks*e.ExpanderU%2 != 0 {
			return false
		}
		if e.OperaRacks%2 != 0 || e.OperaRacks%(k/2) != 0 {
			return false
		}
		expHosts := e.ExpanderRacks * e.ExpanderD
		operaHosts := e.OperaRacks * e.OperaHostsPerRack
		near := func(h, ref, slack int) bool { return h >= ref-slack && h <= ref+slack }
		return near(expHosts, e.Hosts, 2*e.ExpanderD) && near(operaHosts, e.Hosts, k*(k/2))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
