// Package routing builds and queries per-topology-slice forwarding tables.
//
// Opera's ToRs forward low-latency packets along expander paths that change
// every topology slice (§4.3): each ToR holds, per slice, a next-hop entry
// for every destination rack. This package precomputes those tables from
// port maps (which uplink reaches which rack during which slice), retaining
// every equal-cost uplink so the simulator can spray packets across the
// path diversity of each slice, and validates the loop-freedom invariant
// that makes ε a sound drain bound.
//
// A slice is built by one bit-parallel search from every rack at once
// (graph.BitBFS): the racks within L hops of a rack are the OR of its
// peers' sets at L−1, the bits new at L are its distance-L ring, and
// uplink k of src lies on a shortest path to exactly the racks in
// ring[L][src] & ring[L−1][peer k]. Port maps are read as directed: a
// link knocked out in one direction only is routed around in that
// direction only.
//
// The same builder serves the static expander baseline (a single eternal
// "slice") and the failure analysis (port maps with failed links masked
// out; Lazy tables build only the slices a fault epoch looks up). It also
// implements the P4 rule-count model behind Table 1.
package routing

import (
	"errors"
	"fmt"
	"math/bits"

	"github.com/opera-net/opera/internal/graph"
	"github.com/opera-net/opera/internal/topology"
)

// Unreachable is the distance stored for unreachable rack pairs.
const Unreachable = 0xFF

// ErrPathTooLong is returned when a shortest path has Unreachable or more
// hops, which a table cell cannot hold.
var ErrPathTooLong = errors.New("routing: shortest path of 255 or more hops")

// PortMap describes connectivity during one topology slice:
// PortMap[rack][uplink] is the peer rack reached through that uplink, or -1
// if the uplink is unusable this slice (transitioning switch, self-loop
// matching entry, or failed link).
type PortMap [][]int32

// NumUplinks returns the uplink count (ports per rack).
func (pm PortMap) NumUplinks() int {
	if len(pm) == 0 {
		return 0
	}
	return len(pm[0])
}

// newPortMaps allocates count port maps of n racks × u uplinks over one
// backing array.
func newPortMaps(count, n, u int) []PortMap {
	maps := make([]PortMap, count)
	rows := make([][]int32, count*n)
	cells := make([]int32, count*n*u)
	for i := range rows {
		rows[i] = cells[i*u : (i+1)*u : (i+1)*u]
	}
	for s := range maps {
		maps[s] = rows[s*n : (s+1)*n : (s+1)*n]
	}
	return maps
}

// Tables holds per-slice next-hop state for every (source, destination)
// rack pair. Uplink sets are bitmasks (bit i = uplink i usable on a
// shortest path), so a table cell is five bytes; the paper-scale 108-rack
// network's full cycle fits in ~6 MB.
type Tables struct {
	N      int // racks
	U      int // uplinks per rack
	Slices int

	dist []uint8  // [slice*N*N + src*N + dst]
	mask []uint32 // same indexing; bit u set ⇒ uplink u lies on a shortest path

	// built[s] says slice s's cells hold its tables. Build sets every
	// entry; on Lazy tables a lookup builds the slice it finds unset, so
	// every reader goes through idx.
	built []bool
	lazy  *lazyBuild // nil on tables from Build
}

// lazyBuild is what Lazy tables build a slice from on its first lookup.
type lazyBuild struct {
	source func(slice int, pm PortMap)
	pm     PortMap // the one port map every slice is derived into
	bfs    graph.BitBFS
}

func newTables(n, u, slices int) *Tables {
	return &Tables{
		N: n, U: u, Slices: slices,
		dist:  make([]uint8, slices*n*n),
		mask:  make([]uint32, slices*n*n),
		built: make([]bool, slices),
	}
}

// Build constructs tables from one PortMap per slice. All maps must agree
// on rack and uplink counts, uplinks must be at most 32, peers must be
// below the rack count, and no shortest path may reach Unreachable hops
// (ErrPathTooLong).
func Build(maps []PortMap) (*Tables, error) {
	if len(maps) == 0 {
		return nil, errors.New("routing: no port maps")
	}
	u := maps[0].NumUplinks()
	if u > 32 {
		return nil, fmt.Errorf("routing: %d uplinks exceed 32-bit mask", u)
	}
	t := newTables(len(maps[0]), u, len(maps))
	var bfs graph.BitBFS
	for s, pm := range maps {
		if err := t.buildSlice(&bfs, s, pm); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// Lazy returns tables of t's shape with no slice built: the first lookup
// into a slice has source fill in that slice's port map and builds its
// cells from it, and Invalidate forgets every built slice. source must
// derive the same map for a slice until the next Invalidate. A slice that
// cannot be built (ErrPathTooLong, a peer out of range) panics at its
// first lookup, as MustBuild would have.
func (t *Tables) Lazy(source func(slice int, pm PortMap)) *Tables {
	lt := newTables(t.N, t.U, t.Slices)
	lt.lazy = &lazyBuild{source: source, pm: newPortMaps(1, t.N, t.U)[0]}
	return lt
}

// Invalidate marks every slice of Lazy tables unbuilt, keeping the buffers.
func (t *Tables) Invalidate() { clear(t.built) }

// Built returns how many slices hold built cells.
func (t *Tables) Built() int {
	count := 0
	for _, built := range t.built {
		if built {
			count++
		}
	}
	return count
}

func (t *Tables) buildLazy(slice int) {
	l := t.lazy
	l.source(slice, l.pm)
	if err := t.buildSlice(&l.bfs, slice, l.pm); err != nil {
		panic(err)
	}
}

// buildSlice fills slice s's cells from its port map, searching in bfs's
// buffers.
func (t *Tables) buildSlice(bfs *graph.BitBFS, s int, pm PortMap) error {
	n := t.N
	if len(pm) != n {
		return fmt.Errorf("routing: slice %d port map has inconsistent shape", s)
	}
	for rack, row := range pm {
		if len(row) != t.U {
			return fmt.Errorf("routing: slice %d port map has inconsistent shape", s)
		}
		for k, peer := range row {
			if int(peer) >= n {
				return fmt.Errorf("routing: slice %d rack %d uplink %d: peer %d of %d racks", s, rack, k, peer, n)
			}
		}
	}
	dist, mask := t.dist[s*n*n:(s+1)*n*n], t.mask[s*n*n:(s+1)*n*n]
	for i := range dist {
		dist[i] = Unreachable
	}
	clear(mask)
	for v := 0; v < n; v++ {
		dist[v*n+v] = 0
	}
	bfs.Reset(n)
	for bfs.Step(pm) {
		level := bfs.Level()
		if level >= Unreachable {
			return fmt.Errorf("%w (slice %d)", ErrPathTooLong, s)
		}
		for src, row := range pm {
			ring := bfs.Ring(src)
			d, m := dist[src*n:(src+1)*n], mask[src*n:(src+1)*n]
			for i, word := range ring {
				for ; word != 0; word &= word - 1 {
					d[i*64+bits.TrailingZeros64(word)] = uint8(level)
				}
			}
			// Uplink k helps toward the racks of this ring that its peer
			// had one ring earlier.
			for k, peer := range row {
				if peer < 0 {
					continue
				}
				via := bfs.PrevRing(int(peer))
				for i, word := range ring {
					for word &= via[i]; word != 0; word &= word - 1 {
						m[i*64+bits.TrailingZeros64(word)] |= 1 << uint(k)
					}
				}
			}
		}
	}
	t.built[s] = true
	return nil
}

// MustBuild is Build but panics on error.
func MustBuild(maps []PortMap) *Tables {
	t, err := Build(maps)
	if err != nil {
		panic(err)
	}
	return t
}

// Dist returns the hop distance from src to dst during slice s, or
// Unreachable.
func (t *Tables) Dist(slice, src, dst int) int {
	return int(t.dist[t.idx(slice, src, dst)])
}

// Mask returns the equal-cost uplink bitmask from src toward dst during
// slice s. A zero mask with src != dst means unreachable.
func (t *Tables) Mask(slice, src, dst int) uint32 {
	return t.mask[t.idx(slice, src, dst)]
}

// PickUplink selects one uplink from the equal-cost set using the caller's
// random value (e.g. per-packet), returning -1 if none. Selection is
// uniform across set bits.
func (t *Tables) PickUplink(slice, src, dst int, rnd uint32) int {
	m := t.mask[t.idx(slice, src, dst)]
	if m == 0 {
		return -1
	}
	k := int(rnd) % bits.OnesCount32(m)
	for {
		low := bits.TrailingZeros32(m)
		if k == 0 {
			return low
		}
		m &^= 1 << uint(low)
		k--
	}
}

// MaxDist returns the largest finite distance across all slices and pairs —
// the worst-case path length that sizes ε (§4.1).
func (t *Tables) MaxDist() int {
	max := 0
	for s := 0; s < t.Slices; s++ {
		first := t.idx(s, 0, 0)
		for _, d := range t.dist[first : first+t.N*t.N] {
			if d != Unreachable && int(d) > max {
				max = int(d)
			}
		}
	}
	return max
}

// idx is the one way to a cell: it builds a Lazy slice on its first use.
func (t *Tables) idx(slice, src, dst int) int {
	if !t.built[slice] {
		t.buildLazy(slice)
	}
	return (slice*t.N+src)*t.N + dst
}

// Validate checks loop freedom: for every (slice, src, dst) and every
// uplink in the mask, the peer's distance to dst is exactly dist-1. This is
// the invariant that guarantees a packet forwarded within a single slice
// strictly approaches its destination.
func (t *Tables) Validate(maps []PortMap) error {
	if len(maps) != t.Slices {
		return fmt.Errorf("routing: validate: %d maps for %d slices", len(maps), t.Slices)
	}
	for s := 0; s < t.Slices; s++ {
		pm := maps[s]
		for src := 0; src < t.N; src++ {
			for dst := 0; dst < t.N; dst++ {
				if src == dst {
					continue
				}
				d := t.Dist(s, src, dst)
				m := t.Mask(s, src, dst)
				if d == Unreachable {
					if m != 0 {
						return fmt.Errorf("routing: slice %d (%d→%d): unreachable but mask %b", s, src, dst, m)
					}
					continue
				}
				if m == 0 {
					return fmt.Errorf("routing: slice %d (%d→%d): reachable (dist %d) but empty mask", s, src, dst, d)
				}
				for k := 0; k < t.U; k++ {
					if m&(1<<uint(k)) == 0 {
						continue
					}
					peer := pm[src][k]
					if peer < 0 {
						return fmt.Errorf("routing: slice %d (%d→%d): masked uplink %d unusable", s, src, dst, k)
					}
					if pd := t.Dist(s, int(peer), dst); pd != d-1 {
						return fmt.Errorf("routing: slice %d (%d→%d): uplink %d peer %d at dist %d, want %d",
							s, src, dst, k, peer, pd, d-1)
					}
				}
			}
		}
	}
	return nil
}

// OperaPortMaps derives one PortMap per slice-in-cycle from an Opera
// topology: uplink k of each rack reaches its matching peer, except when
// switch k is transitioning (drain rule, §3.1.1) or the matching entry is a
// self-loop.
func OperaPortMaps(o *topology.Opera) []PortMap {
	maps := newPortMaps(o.SlicesPerCycle(), o.NumRacks(), o.Uplinks())
	for s, pm := range maps {
		o.SlicePeers(s, pm)
	}
	return maps
}

// ExpanderPortMap derives the single static PortMap of an expander network:
// uplink k of each rack is its k-th neighbor.
func ExpanderPortMap(e *topology.Expander) []PortMap {
	maps := newPortMaps(1, e.NumRacks, e.Degree)
	e.Peers(maps[0])
	return maps
}
