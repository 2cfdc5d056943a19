// Package routing builds and queries per-topology-slice forwarding tables.
//
// Opera's ToRs forward low-latency packets along expander paths that change
// every topology slice (§4.3): each ToR holds, per slice, a next-hop entry
// for every destination rack. This package precomputes those tables from
// port maps (which uplink reaches which rack during which slice), retaining
// every equal-cost uplink so the simulator can spray packets across the
// path diversity of each slice. A cell holds what the ToR's rule holds —
// the set of shortest-path uplinks, and no distance; the tests check the
// loop-freedom invariant that makes ε a sound drain bound against a plain
// per-source BFS.
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
// "slice") and the simulator's fault recovery (port maps with failed
// links masked out; Lazy tables build only the slices a fault epoch looks
// up). It also implements the P4 rule-count model behind Table 1.
package routing

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"

	"github.com/opera-net/opera/internal/graph"
	"github.com/opera-net/opera/internal/topology"
)

// unreachable is the hop count Build refuses a shortest path to reach,
// and the distance the tests' BFS gives a pair with no path.
const unreachable = 0xFF

// errPathTooLong is returned when a shortest path has unreachable or more
// hops.
var errPathTooLong = errors.New("routing: shortest path of 255 or more hops")

// PortMap describes connectivity during one topology slice:
// PortMap[rack][uplink] is the peer rack reached through that uplink, or -1
// if the uplink is unusable this slice (transitioning switch, self-loop
// matching entry, or failed link). It is graph's successor table, the one
// graph form: the path, failure and spectral analyses read the same
// tables the routes are built from.
type PortMap [][]int32

// numUplinks returns the uplink count (ports per rack).
func (pm PortMap) numUplinks() int {
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

// Source derives a fabric's port maps one slice at a time: Fill writes
// every cell of slice s's Racks × Uplinks map into pm, a table the caller
// owns and reuses from slice to slice. A fabric's tables are built from
// its source without ever holding more than one slice's map.
type Source struct {
	Racks, Uplinks, Slices int
	Fill                   func(slice int, pm PortMap)
}

// OperaSource is an Opera topology's source, one map per slice-in-cycle:
// uplink k of each rack reaches its matching peer, except when switch k is
// transitioning (drain rule, §3.1.1) or the matching entry is a self-loop.
func OperaSource(o *topology.Opera) Source {
	return Source{o.NumRacks(), o.Uplinks(), o.SlicesPerCycle(),
		func(s int, pm PortMap) { o.SlicePeers(s, pm) }}
}

// ExpanderSource is the static expander's source, its one eternal slice:
// uplink k of each rack is its k-th neighbor.
func ExpanderSource(e *topology.Expander) Source {
	return Source{e.NumRacks, e.Degree, 1, func(_ int, pm PortMap) { e.Peers(pm) }}
}

// Maps returns every slice's map at once, over one backing array.
func (src Source) Maps() []PortMap {
	maps := newPortMaps(src.Slices, src.Racks, src.Uplinks)
	for s, pm := range maps {
		src.Fill(s, pm)
	}
	return maps
}

// Tables holds per-slice next-hop state for every (source, destination)
// rack pair. A cell is the set of uplinks on a shortest path as a bitmask
// (bit k = uplink k) of ⌈U/8⌉ bytes, one for U ≤ 8, so the paper-scale
// 108-rack, 6-uplink network's full cycle fits in ~1.3 MB.
type Tables struct {
	N      int // racks
	U      int // uplinks per rack
	Slices int

	// mask holds cell (slice, src, dst) little-endian in the w bytes at
	// w*((slice*N+src)*N+dst), followed by three bytes of padding so that
	// every cell reads as one 32-bit load.
	mask []byte
	w    int

	// built[s] says slice s's cells hold its tables. BuildFrom sets every
	// entry; on Lazy tables a lookup builds the slice it finds unset, so
	// every reader goes through idx.
	built []bool
	lazy  *sliceBuilder // nil on tables from BuildFrom
}

// sliceBuilder builds a slice's cells from a source: the one per-slice
// step of BuildFrom's loop and of a Lazy lookup.
type sliceBuilder struct {
	fill func(slice int, pm PortMap)
	pm   PortMap // the one port map every slice is derived into
	bfs  graph.BitBFS
}

func newSliceBuilder(n, u int, fill func(slice int, pm PortMap)) *sliceBuilder {
	return &sliceBuilder{fill: fill, pm: newPortMaps(1, n, u)[0]}
}

// build derives slice's port map and fills the slice's cells of t from it.
func (b *sliceBuilder) build(t *Tables, slice int) error {
	b.fill(slice, b.pm)
	return t.buildSlice(&b.bfs, slice, b.pm)
}

func newTables(n, u, slices int) *Tables {
	w := max(1, (u+7)/8)
	return &Tables{
		N: n, U: u, Slices: slices,
		mask:  make([]byte, slices*n*n*w+3),
		w:     w,
		built: make([]bool, slices),
	}
}

// BuildFrom constructs every slice's tables from src, deriving the slices
// one at a time into one reused port map. Uplinks must be at most 32,
// peers must be below the rack count, and no shortest path may reach 255
// hops.
func BuildFrom(src Source) (*Tables, error) {
	if src.Uplinks > 32 {
		return nil, fmt.Errorf("routing: %d uplinks exceed 32-bit mask", src.Uplinks)
	}
	t := newTables(src.Racks, src.Uplinks, src.Slices)
	b := newSliceBuilder(t.N, t.U, src.Fill)
	for s := range t.Slices {
		if err := b.build(t, s); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// Build constructs tables from one PortMap per slice, through BuildFrom.
// All maps must agree on rack and uplink counts.
func Build(maps []PortMap) (*Tables, error) {
	if len(maps) == 0 {
		return nil, errors.New("routing: no port maps")
	}
	n, u := len(maps[0]), maps[0].numUplinks()
	for s, pm := range maps {
		if len(pm) != n {
			return nil, fmt.Errorf("routing: slice %d port map has inconsistent shape", s)
		}
		for _, row := range pm {
			if len(row) != u {
				return nil, fmt.Errorf("routing: slice %d port map has inconsistent shape", s)
			}
		}
	}
	return BuildFrom(Source{n, u, len(maps), func(s int, pm PortMap) {
		for r, row := range maps[s] {
			copy(pm[r], row)
		}
	}})
}

// Lazy returns tables of t's shape with no slice built: the first lookup
// into a slice has fill derive that slice's port map and builds its cells
// from it, and Invalidate forgets every built slice. fill must derive the
// same map for a slice until the next Invalidate. A slice that cannot be
// built (a 255-hop path, a peer out of range) panics at its first lookup.
func (t *Tables) Lazy(fill func(slice int, pm PortMap)) *Tables {
	lt := newTables(t.N, t.U, t.Slices)
	lt.lazy = newSliceBuilder(t.N, t.U, fill)
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

// buildSlice fills slice s's cells from its port map, searching in bfs's
// buffers.
func (t *Tables) buildSlice(bfs *graph.BitBFS, s int, pm PortMap) error {
	n := t.N
	for rack, row := range pm {
		for k, peer := range row {
			if int(peer) >= n {
				return fmt.Errorf("routing: slice %d rack %d uplink %d: peer %d of %d racks", s, rack, k, peer, n)
			}
		}
	}
	w := t.w
	mask := t.mask[s*n*n*w : (s+1)*n*n*w]
	clear(mask)
	bfs.Reset(n)
	for bfs.Step(pm) {
		if bfs.Level() >= unreachable {
			return fmt.Errorf("%w (slice %d)", errPathTooLong, s)
		}
		for src, row := range pm {
			ring := bfs.Ring(src)
			m := mask[src*n*w : (src+1)*n*w]
			// Uplink k helps toward the racks of this ring that its peer
			// had one ring earlier.
			for k, peer := range row {
				if peer < 0 {
					continue
				}
				via := bfs.PrevRing(int(peer))
				mk, bit := m[k/8:], byte(1)<<(k%8)
				for i, word := range ring {
					for word &= via[i]; word != 0; word &= word - 1 {
						mk[(i*64+bits.TrailingZeros64(word))*w] |= bit
					}
				}
			}
		}
	}
	t.built[s] = true
	return nil
}

// Mask returns the equal-cost uplink bitmask from src toward dst during
// slice s. A zero mask with src != dst means unreachable.
func (t *Tables) Mask(slice, src, dst int) uint32 {
	// The load takes the bytes after a narrow cell too; the AND drops
	// them (at U = 32 the mask wraps to all ones).
	i := t.idx(slice, src, dst) * t.w
	return binary.LittleEndian.Uint32(t.mask[i:i+4]) & (1<<uint(t.U) - 1)
}

// PickUplink selects one uplink from the equal-cost set using the caller's
// random value (e.g. per-packet), returning -1 if none. Selection is
// uniform across set bits.
func (t *Tables) PickUplink(slice, src, dst int, rnd uint32) int {
	m := t.Mask(slice, src, dst)
	if m == 0 {
		return -1
	}
	k := int(rnd % uint32(bits.OnesCount32(m)))
	for {
		low := bits.TrailingZeros32(m)
		if k == 0 {
			return low
		}
		m &^= 1 << uint(low)
		k--
	}
}

// idx is the one way to a cell: it builds a Lazy slice on its first use.
func (t *Tables) idx(slice, src, dst int) int {
	if !t.built[slice] {
		t.buildLazy(slice)
	}
	return (slice*t.N+src)*t.N + dst
}

// buildLazy builds a slice of Lazy tables. It is kept out of idx so that
// idx stays small enough to inline into every lookup.
//
//go:noinline
func (t *Tables) buildLazy(slice int) {
	if err := t.lazy.build(t, slice); err != nil {
		panic(err)
	}
}

// OperaPortMaps returns every slice-in-cycle's map of OperaSource(o).
func OperaPortMaps(o *topology.Opera) []PortMap { return OperaSource(o).Maps() }

// ExpanderPortMap returns the one map of ExpanderSource(e).
func ExpanderPortMap(e *topology.Expander) []PortMap { return ExpanderSource(e).Maps() }
