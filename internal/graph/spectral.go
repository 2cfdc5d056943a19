package graph

import (
	"math"
	"math/rand"
)

// SpectralGap estimates the spectral gap d - λ of the undirected graph adj,
// where d is the (average) degree and λ = max(|λ₂|, |λₙ|) is the largest nontrivial
// adjacency eigenvalue magnitude. For a d-regular graph this is the standard
// expander metric from Alon [6]: a Ramanujan-quality expander achieves
// d - 2·sqrt(d-1). Appendix D of the paper plots exactly this quantity for
// Opera's topology slices against static expanders.
//
// The estimate uses shifted power iteration with deflation of the dominant
// eigenvector, which is exact in the limit and converges geometrically; iters
// controls the iteration count (a few hundred suffices for the graph sizes
// in this repository). rng seeds the start vectors so results are
// deterministic per seed. Absent (negative) entries are skipped.
func SpectralGap(adj [][]int32, iters int, rng *rand.Rand) float64 {
	if len(adj) < 2 {
		return 0
	}
	var sum float64
	for _, row := range adj {
		sum += float64(degree(row))
	}
	d := sum / float64(len(adj))
	return d - secondEigenvalue(adj, iters, rng)
}

// degree counts row's present entries.
func degree(row []int32) int {
	d := 0
	for _, nb := range row {
		if nb >= 0 {
			d++
		}
	}
	return d
}

// secondEigenvalue returns max(|λ₂|, |λₙ|): the magnitude of the largest
// eigenvalue of the adjacency matrix restricted to the space orthogonal to
// the dominant (Perron) eigenvector.
//
// Plain power iteration on A fails when |λ₁| = |λₙ| (e.g. bipartite graphs,
// where λₙ = -d ties with λ₁ = d), so both ends of the spectrum are found
// with shifted iterations that make the target eigenvalue strictly dominant:
// B = A + s·I isolates the largest signed eigenvalue, C = s·I - A the
// smallest, with s chosen above the spectral radius.
func secondEigenvalue(adj [][]int32, iters int, rng *rand.Rand) float64 {
	if iters <= 0 {
		iters = 300
	}
	s := maxDegree(adj) + 1 // spectral radius ≤ max degree < s
	// Dominant (Perron) eigenvector v1 of A, via B = A + s·I (all
	// eigenvalues of B are positive, so iteration converges even on
	// bipartite graphs). v1 ≈ uniform for regular graphs; it is computed
	// explicitly to tolerate the slight irregularity of Opera slices, where
	// matchings may contain self-loops.
	v1 := powerIterate(adj, 1, s, nil, iters, rng)
	// λ₂ (largest signed, excluding Perron): iterate B deflating v1.
	x2 := powerIterate(adj, 1, s, v1, iters, rng)
	lam2 := rayleigh(adj, x2)
	// λₙ (most negative): iterate C = s·I - A; its dominant eigenvector is
	// λₙ's. Deflating v1 is harmless and guards near-regular graphs.
	xn := powerIterate(adj, -1, s, v1, iters, rng)
	lamN := rayleigh(adj, xn)
	return math.Max(math.Abs(lam2), math.Abs(lamN))
}

func maxDegree(adj [][]int32) float64 {
	max := 0
	for _, row := range adj {
		if d := degree(row); d > max {
			max = d
		}
	}
	return float64(max)
}

// powerIterate runs power iteration on the matrix scale·A + shift·I. If
// deflate is non-nil, every iterate is projected orthogonal to it. Returns
// the final unit vector.
func powerIterate(adj [][]int32, scale, shift float64, deflate []float64, iters int, rng *rand.Rand) []float64 {
	n := len(adj)
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.Float64()*2 - 1
	}
	if deflate != nil {
		projectOut(x, deflate)
	}
	normalize(x)
	y := make([]float64, n)
	for it := 0; it < iters; it++ {
		matVecShifted(adj, x, y, scale, shift)
		if deflate != nil {
			projectOut(y, deflate)
		}
		if norm(y) < 1e-30 {
			// Degenerate (e.g. edgeless graph): restart from random.
			for i := range y {
				y[i] = rng.Float64()*2 - 1
			}
			if deflate != nil {
				projectOut(y, deflate)
			}
		}
		normalize(y)
		x, y = y, x
	}
	return x
}

// matVecShifted computes y = scale·(A·x) + shift·x, visiting each row's
// neighbours in table order.
func matVecShifted(adj [][]int32, x, y []float64, scale, shift float64) {
	for v, row := range adj {
		var sum float64
		for _, nb := range row {
			if nb >= 0 {
				sum += x[nb]
			}
		}
		y[v] = scale*sum + shift*x[v]
	}
}

// rayleigh returns xᵀAx / xᵀx.
func rayleigh(adj [][]int32, x []float64) float64 {
	y := make([]float64, len(adj))
	matVecShifted(adj, x, y, 1, 0)
	var num, den float64
	for i := range x {
		num += x[i] * y[i]
		den += x[i] * x[i]
	}
	if den == 0 {
		return 0
	}
	return num / den
}

func projectOut(x, dir []float64) {
	var dot, dd float64
	for i := range x {
		dot += x[i] * dir[i]
		dd += dir[i] * dir[i]
	}
	if dd == 0 {
		return
	}
	c := dot / dd
	for i := range x {
		x[i] -= c * dir[i]
	}
}

func norm(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += v * v
	}
	return math.Sqrt(s)
}

func normalize(x []float64) {
	n := norm(x)
	if n == 0 {
		return
	}
	for i := range x {
		x[i] /= n
	}
}

// RamanujanGap returns the best possible spectral gap d - 2·sqrt(d-1) of a
// d-regular Ramanujan expander, the reference line for Appendix D.
func RamanujanGap(d float64) float64 {
	if d < 1 {
		return 0
	}
	return d - 2*math.Sqrt(d-1)
}
