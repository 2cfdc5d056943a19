package topology

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestFactorizeCompleteSmall(t *testing.T) {
	for _, n := range []int{2, 4, 8, 16, 108} {
		rng := rand.New(rand.NewSource(int64(n)))
		ms := FactorizeComplete(n, rng)
		if len(ms) != n {
			t.Fatalf("n=%d: got %d matchings, want %d", n, len(ms), n)
		}
		if err := VerifyFactorization(ms); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

func TestFactorizeCompleteOddPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("odd N did not panic")
		}
	}()
	FactorizeComplete(7, rand.New(rand.NewSource(1)))
}

func TestFactorizeSelfLoopCount(t *testing.T) {
	// Over the whole factorization the diagonal is covered exactly once, so
	// self-loop total over all matchings must equal N.
	n := 32
	ms := FactorizeComplete(n, rand.New(rand.NewSource(9)))
	total := 0
	for _, m := range ms {
		for i, p := range m {
			if int(p) == i {
				total++
			}
		}
	}
	if total != n {
		t.Fatalf("total self-loops = %d, want %d", total, n)
	}
}

func TestMatchingValidate(t *testing.T) {
	good := Matching{1, 0, 3, 2}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid matching rejected: %v", err)
	}
	bad := Matching{1, 2, 0, 3}
	if err := bad.Validate(); err == nil {
		t.Fatal("non-involution accepted")
	}
	oob := Matching{5, 0}
	if err := oob.Validate(); err == nil {
		t.Fatal("out-of-range entry accepted")
	}
}

func TestLiftDoubles(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	base := FactorizeComplete(8, rng)
	lifted := Lift(base, rng)
	if len(lifted) != 16 || lifted[0].N() != 16 {
		t.Fatalf("lift produced %d matchings of size %d", len(lifted), lifted[0].N())
	}
	if err := VerifyFactorization(lifted); err != nil {
		t.Fatal(err)
	}
}

func TestLiftTwice(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ms := FactorizeComplete(6, rng)
	ms = Lift(ms, rng)
	ms = Lift(ms, rng)
	if len(ms) != 24 {
		t.Fatalf("double lift gave %d matchings, want 24", len(ms))
	}
	if err := VerifyFactorization(ms); err != nil {
		t.Fatal(err)
	}
}

func TestLiftEmpty(t *testing.T) {
	if Lift(nil, rand.New(rand.NewSource(1))) != nil {
		t.Fatal("lifting nothing should give nothing")
	}
}

func TestFactorizeAuto(t *testing.T) {
	for _, n := range []int{4, 108, 432, 600, 1026, 2048} {
		rng := rand.New(rand.NewSource(int64(n) * 3))
		ms := FactorizeAuto(n, rng)
		if len(ms) != n {
			t.Fatalf("n=%d: %d matchings", n, len(ms))
		}
		if err := VerifyFactorization(ms); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

// Property: any even size and seed yields a verifiable factorization.
func TestFactorizationProperty(t *testing.T) {
	f := func(seed int64, raw uint8) bool {
		n := 2 * (1 + int(raw%24)) // 2..48
		ms := FactorizeComplete(n, rand.New(rand.NewSource(seed)))
		return VerifyFactorization(ms) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// Property: lifting preserves factorization validity for arbitrary seeds.
func TestLiftProperty(t *testing.T) {
	f := func(seed int64, raw uint8) bool {
		n := 2 * (1 + int(raw%12)) // 2..24
		rng := rand.New(rand.NewSource(seed))
		ms := Lift(FactorizeComplete(n, rng), rng)
		return VerifyFactorization(ms) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestVerifyFactorizationRejects(t *testing.T) {
	if VerifyFactorization(nil) == nil {
		t.Fatal("empty factorization accepted")
	}
	// Wrong count.
	ms := []Matching{{1, 0}}
	if VerifyFactorization(ms) == nil {
		t.Fatal("short factorization accepted")
	}
	// Duplicate coverage: two identity matchings on 2 racks.
	dup := []Matching{{0, 1}, {0, 1}}
	if VerifyFactorization(dup) == nil {
		t.Fatal("duplicate coverage accepted")
	}
}

func BenchmarkFactorize108(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewSource(int64(i)))
		_ = FactorizeComplete(108, rng)
	}
}

func BenchmarkLiftTo4096(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewSource(int64(i)))
		_ = FactorizeAuto(4096, rng)
	}
}
