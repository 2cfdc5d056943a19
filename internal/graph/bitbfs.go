package graph

import "math/bits"

// BitBFS is a bit-parallel breadth-first search from every node at once.
// Node v's set of nodes within L hops is a bitset; one Step takes every
// source from level L to L+1 by OR-ing each node's successors' sets —
// n·u·⌈n/64⌉ word operations where n per-source BFS passes would walk n²·u
// edges. The bits a node gains at a level are its ring: the nodes at
// exactly that distance.
//
// The graph is a directed successor table, adj[v][k] being the k-th
// successor of v; negative entries are absent edges and self-loops are
// harmless. A BitBFS is reusable: Reset keeps the buffers of the previous
// run when they are large enough.
type BitBFS struct {
	n, w  int
	level int
	buf   []uint64 // backs the four tables below
	// Four [v*w : (v+1)*w] bitset tables: the nodes within level hops of v
	// and Step's scratch for the next level, then the nodes at exactly
	// level and at exactly level−1 hops.
	reach, next, ring, prev []uint64
}

// Reset starts a search over n nodes at level 0: every node reaches itself.
func (b *BitBFS) Reset(n int) {
	b.n, b.w, b.level = n, (n+63)/64, 0
	size := n * b.w
	if len(b.buf) < 4*size {
		b.buf = make([]uint64, 4*size)
	}
	b.reach, b.next = b.buf[:size], b.buf[size:2*size]
	b.ring, b.prev = b.buf[2*size:3*size], b.buf[3*size:4*size]
	clear(b.reach)
	clear(b.prev)
	for v := 0; v < n; v++ {
		b.reach[v*b.w+v/64] = 1 << uint(v%64)
	}
	copy(b.ring, b.reach)
}

// Step advances every source one level along adj and reports whether any
// node gained a new node; after a false return the search is complete and
// the rings are empty.
func (b *BitBFS) Step(adj [][]int32) bool {
	w := b.w
	b.ring, b.prev = b.prev, b.ring
	var grew uint64
	for v, succ := range adj {
		cur := b.reach[v*w : (v+1)*w]
		nxt := b.next[v*w : (v+1)*w]
		copy(nxt, cur)
		for _, p := range succ {
			if p < 0 {
				continue
			}
			for i, x := range b.reach[int(p)*w : (int(p)+1)*w] {
				nxt[i] |= x
			}
		}
		for i, x := range nxt {
			fresh := x &^ cur[i]
			b.ring[v*w+i] = fresh
			grew |= fresh
		}
	}
	b.reach, b.next = b.next, b.reach
	b.level++
	return grew != 0
}

// Level returns the number of Steps taken since Reset.
func (b *BitBFS) Level() int { return b.level }

// Ring returns the bitset of nodes exactly Level hops from v. It is valid
// until the next Step or Reset.
func (b *BitBFS) Ring(v int) []uint64 { return b.ring[v*b.w : (v+1)*b.w] }

// PrevRing returns the bitset of nodes exactly Level−1 hops from v.
func (b *BitBFS) PrevRing(v int) []uint64 { return b.prev[v*b.w : (v+1)*b.w] }

// Reach returns the bitset of nodes within Level hops of v — after a
// complete search, every node v reaches. It is valid until the next Step
// or Reset.
func (b *BitBFS) Reach(v int) []uint64 { return b.reach[v*b.w : (v+1)*b.w] }

// PathStats runs a complete search over adj and returns the path-length
// statistics of the ordered pairs of distinct nodes among the given
// subset, or among all nodes if the subset is nil — connectivity loss in
// the paper's failure analysis is measured among non-failed ToRs only.
// Afterwards Reach holds every node's reach set.
func (b *BitBFS) PathStats(adj [][]int32, among []int) PathStats {
	b.Reset(len(adj))
	in := make([]uint64, b.w)
	if among == nil {
		for v := range adj {
			in[v/64] |= 1 << uint(v%64)
		}
	}
	for _, v := range among {
		in[v/64] |= 1 << uint(v%64)
	}
	k := 0
	for _, x := range in {
		k += bits.OnesCount64(x)
	}
	ps := PathStats{Hist: []int{0}, Pairs: k * (k - 1), Disconnected: k * (k - 1)}
	for b.Step(adj) {
		c := 0
		for v := 0; v < b.n; v++ {
			if in[v/64]>>uint(v%64)&1 == 0 {
				continue
			}
			for i, x := range b.Ring(v) {
				c += bits.OnesCount64(x & in[i])
			}
		}
		ps.Hist = append(ps.Hist, c)
		ps.Disconnected -= c
	}
	return ps
}

// Distances runs a complete search over adj and returns dist[src][dst],
// the hop count of the shortest path, or Unreachable.
func (b *BitBFS) Distances(adj [][]int32) [][]int {
	n := len(adj)
	b.Reset(n)
	cells := make([]int, n*n)
	for i := range cells {
		cells[i] = Unreachable
	}
	dist := make([][]int, n)
	for v := range dist {
		dist[v] = cells[v*n : (v+1)*n]
		dist[v][v] = 0
	}
	for b.Step(adj) {
		for v, row := range dist {
			for i, x := range b.Ring(v) {
				for ; x != 0; x &= x - 1 {
					row[i*64+bits.TrailingZeros64(x)] = b.level
				}
			}
		}
	}
	return dist
}
