// Package topology constructs the network topologies evaluated in the Opera
// paper: the Opera time-varying expander itself, static expander graphs,
// oversubscribed folded-Clos networks, and RotorNet. It also implements the
// complete-graph factorization and graph-lifting algorithms of §3.3 and the
// timing/scheduling model of §3.1.1, §4.1 and Appendix B.
package topology

import (
	"fmt"
	"math/rand"
)

// Matching is a symmetric permutation ("matching") over racks 0..N-1, the
// unit of rotor-switch configuration. m[i] is the rack whose uplink is
// circuit-connected to rack i's uplink; m[i] == i denotes a self-loop, i.e.
// an unused port for this configuration (these arise from factoring the
// all-ones N×N matrix, which includes the diagonal).
type Matching []int32

// Peer returns the rack connected to rack r (possibly r itself).
func (m Matching) Peer(r int) int { return int(m[r]) }

// N returns the number of racks the matching spans.
func (m Matching) N() int { return len(m) }

// Validate checks that m is an involution: m[m[i]] == i for all i.
func (m Matching) Validate() error {
	for i, p := range m {
		if p < 0 || int(p) >= len(m) {
			return fmt.Errorf("matching: entry %d out of range: %d", i, p)
		}
		if int(m[p]) != i {
			return fmt.Errorf("matching: not symmetric at %d: m[%d]=%d, m[%d]=%d", i, i, p, p, m[p])
		}
	}
	return nil
}

// FactorizeComplete randomly factors the N×N all-ones matrix into N
// disjoint symmetric matchings (§3.3): every ordered rack pair (i, j),
// including i == j, appears in exactly one matching. N must be even and
// positive.
//
// The factorization must be genuinely random: structured factorizations
// (e.g. circulants) make slice unions into Cayley-like sum graphs whose
// diameter can blow up for unlucky matching subsets, destroying the
// expander property Opera relies on. Matchings are therefore built one at a
// time by randomized hill climbing: each matching is a random perfect
// matching (with self-loops allowed once per vertex across the whole
// factorization) over the pairs not yet used by earlier matchings. When the
// greedy walk gets stuck it performs random augmenting swaps — the standard
// technique for sampling 1-factorizations of K_n, which converges almost
// surely for dense remainder graphs.
func FactorizeComplete(n int, rng *rand.Rand) []Matching {
	if n <= 0 || n%2 != 0 {
		panic(fmt.Sprintf("topology: FactorizeComplete needs positive even N, got %d", n))
	}
	for attempt := 0; attempt < 100; attempt++ {
		if out, ok := tryFactorize(n, rng); ok {
			// Shuffle so matchings land on switches randomly.
			rng.Shuffle(n, func(a, b int) { out[a], out[b] = out[b], out[a] })
			return out
		}
		// Extremely rare at any n; retry with fresh randomness.
	}
	panic(fmt.Sprintf("topology: factorization of N=%d failed repeatedly", n))
}

// factorizer carries the incremental state of one factorization attempt:
// which pairs are consumed and, per vertex, the (lazily pruned) list of
// still-available partners.
type factorizer struct {
	n     int
	used  []bool    // used[i*n+j]: pair consumed by an earlier matching
	avail [][]int32 // avail[i]: partners j with (i,j) possibly unused
	rng   *rand.Rand
}

// tryFactorize attempts one full factorization; it can (very rarely) fail
// if a matching's hill climb exceeds its step budget.
func tryFactorize(n int, rng *rand.Rand) ([]Matching, bool) {
	f := &factorizer{
		n:     n,
		used:  make([]bool, n*n),
		avail: make([][]int32, n),
		rng:   rng,
	}
	flat := make([]int32, n*n) // single allocation backing all avail lists
	for i := 0; i < n; i++ {
		row := flat[i*n : (i+1)*n]
		for j := range row {
			row[j] = int32(j)
		}
		f.avail[i] = row
	}
	out := make([]Matching, 0, n)
	for k := 0; k < n; k++ {
		m, ok := f.randomMatching()
		if !ok {
			return nil, false
		}
		for i := 0; i < n; i++ {
			f.used[i*n+int(m[i])] = true
		}
		out = append(out, m)
	}
	return out, true
}

// pruneStale removes avail[i][idx], known to be consumed.
func (f *factorizer) pruneStale(i int32, idx int) {
	row := f.avail[i]
	row[idx] = row[len(row)-1]
	f.avail[i] = row[:len(row)-1]
}

// randomMatching builds one random symmetric matching (involution,
// self-loops allowed) over the unconsumed pairs. Hill climbing: match
// random free vertices to random available partners; when a vertex has no
// free available partner, steal a matched one and re-free its mate.
//
// Partner selection samples the availability list (pruning consumed
// entries on contact) and falls back to a full scan only when sampling
// fails to find a free partner, keeping the expected cost near O(1) per
// vertex instead of O(n).
func (f *factorizer) randomMatching() (Matching, bool) {
	n := f.n
	m := make(Matching, n)
	for i := range m {
		m[i] = -1
	}
	free := make([]int32, n)
	for i := range free {
		free[i] = int32(i)
	}
	f.rng.Shuffle(n, func(a, b int) { free[a], free[b] = free[b], free[a] })

	budget := 400*n + 20000
	freeCand := make([]int32, 0, 64)
	matchedCand := make([]int32, 0, 64)
	for len(free) > 0 {
		if budget--; budget < 0 {
			return nil, false
		}
		i := free[len(free)-1]
		free = free[:len(free)-1]
		if m[i] != -1 { // matched meanwhile as someone's partner
			continue
		}

		// Fast path: sample random available partners, hoping for a free
		// one. Consumed entries discovered along the way are pruned.
		matched := false
		for try := 0; try < 12 && len(f.avail[i]) > 0; try++ {
			idx := f.rng.Intn(len(f.avail[i]))
			j := f.avail[i][idx]
			if f.used[int(i)*n+int(j)] {
				f.pruneStale(i, idx)
				try--
				continue
			}
			if j == i || m[j] == -1 {
				m[i], m[j] = j, i // j == i yields the self-loop
				matched = true
				break
			}
		}
		if matched {
			continue
		}

		// Slow path: full scan with compaction to be certain whether a free
		// partner exists.
		freeCand = freeCand[:0]
		matchedCand = matchedCand[:0]
		row := f.avail[i]
		w := 0
		for _, j := range row {
			if f.used[int(i)*n+int(j)] {
				continue // drop consumed entry
			}
			row[w] = j
			w++
			if j == i || m[j] == -1 {
				freeCand = append(freeCand, j)
			} else {
				matchedCand = append(matchedCand, j)
			}
		}
		f.avail[i] = row[:w]
		switch {
		case len(freeCand) > 0:
			j := freeCand[f.rng.Intn(len(freeCand))]
			m[i], m[j] = j, i
		case len(matchedCand) > 0:
			// Steal: break j's current pairing, re-freeing its mate.
			j := matchedCand[f.rng.Intn(len(matchedCand))]
			p := m[j]
			m[p] = -1
			if p != j {
				free = append(free, p)
			}
			m[i], m[j] = j, i
		default:
			// i has no unconsumed pair left at all; this attempt is stuck.
			return nil, false
		}
	}
	return m, true
}

// Lift doubles a complete-graph factorization via a random 2-lift (§3.3's
// "graph lifting"): an exact factorization of the 2N×2N all-ones matrix is
// produced from one of the N×N matrix. Rack i of the base graph becomes
// racks i (copy 0) and i+N (copy 1).
//
// Each base matching yields two lifted matchings. A base edge (i, j) lifts
// either "straight" — (i₀,j₀),(i₁,j₁) — or "crossed" — (i₀,j₁),(i₁,j₀); one
// variant goes to the first output matching and the other to the second,
// chosen randomly per edge. A base self-loop at i lifts to the pair
// (i₀,i₁) in one output and self-loops (i₀,i₀),(i₁,i₁) in the other.
// Together these cover every lifted pair exactly once.
func Lift(base []Matching, rng *rand.Rand) []Matching {
	if len(base) == 0 {
		return nil
	}
	n := base[0].N()
	out := make([]Matching, 0, 2*len(base))
	for _, m := range base {
		a := make(Matching, 2*n)
		b := make(Matching, 2*n)
		for i := 0; i < n; i++ {
			j := m.Peer(i)
			if j < i {
				continue // handle each undirected pair once
			}
			if i == j {
				// Self-loop: one output gets the cross edge (i₀,i₁), the
				// other keeps both self-loops.
				if rng.Intn(2) == 0 {
					a[i], a[i+n] = int32(i+n), int32(i)
					b[i], b[i+n] = int32(i), int32(i+n)
				} else {
					b[i], b[i+n] = int32(i+n), int32(i)
					a[i], a[i+n] = int32(i), int32(i+n)
				}
				continue
			}
			straightA := rng.Intn(2) == 0
			if straightA {
				a[i], a[j] = int32(j), int32(i)
				a[i+n], a[j+n] = int32(j+n), int32(i+n)
				b[i], b[j+n] = int32(j+n), int32(i)
				b[i+n], b[j] = int32(j), int32(i+n)
			} else {
				b[i], b[j] = int32(j), int32(i)
				b[i+n], b[j+n] = int32(j+n), int32(i+n)
				a[i], a[j+n] = int32(j+n), int32(i)
				a[i+n], a[j] = int32(j), int32(i+n)
			}
		}
		out = append(out, a, b)
	}
	rng.Shuffle(len(out), func(x, y int) { out[x], out[y] = out[y], out[x] })
	return out
}

// FactorizeAuto builds a factorization of size n. It halves n while n
// exceeds 512 and its half stays even, factors that base size with
// FactorizeComplete's randomized hill climbing, and doubles the result back
// up by lifting, mirroring the paper's use of lifting for large networks.
// The result always has exactly n matchings of n racks each.
func FactorizeAuto(n int, rng *rand.Rand) []Matching {
	if n <= 0 || n%2 != 0 {
		panic(fmt.Sprintf("topology: FactorizeAuto needs positive even N, got %d", n))
	}
	// Halve while the result stays even (FactorizeComplete requires an even
	// base), factor the base, then lift back up.
	lifts := 0
	m := n
	for m > 512 && m%2 == 0 && (m/2)%2 == 0 {
		m /= 2
		lifts++
	}
	fact := FactorizeComplete(m, rng)
	for i := 0; i < lifts; i++ {
		fact = Lift(fact, rng)
	}
	return fact
}

// VerifyFactorization checks the two invariants of a complete-graph
// factorization: every matching is a valid involution, and every ordered
// pair (i, j) — including the diagonal — is covered exactly once across all
// matchings. It returns nil if both hold.
func VerifyFactorization(ms []Matching) error {
	if len(ms) == 0 {
		return fmt.Errorf("topology: empty factorization")
	}
	n := ms[0].N()
	if len(ms) != n {
		return fmt.Errorf("topology: %d matchings for %d racks, want equal", len(ms), n)
	}
	seen := make([]bool, n*n)
	for k, m := range ms {
		if m.N() != n {
			return fmt.Errorf("topology: matching %d has size %d, want %d", k, m.N(), n)
		}
		if err := m.Validate(); err != nil {
			return fmt.Errorf("topology: matching %d: %w", k, err)
		}
		for i := 0; i < n; i++ {
			j := m.Peer(i)
			if seen[i*n+j] {
				return fmt.Errorf("topology: pair (%d,%d) covered twice (matching %d)", i, j, k)
			}
			seen[i*n+j] = true
		}
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if !seen[i*n+j] {
				return fmt.Errorf("topology: pair (%d,%d) never covered", i, j)
			}
		}
	}
	return nil
}
