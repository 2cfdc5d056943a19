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
	w := max(1, (u+7)/8)
	return &Tables{
		N: n, U: u, Slices: slices,
		mask:  make([]byte, slices*n*n*w+3),
		w:     w,
		built: make([]bool, slices),
	}
}

// Build constructs tables from one PortMap per slice. All maps must agree
// on rack and uplink counts, uplinks must be at most 32, peers must be
// below the rack count, and no shortest path may reach 255 hops.
func Build(maps []PortMap) (*Tables, error) {
	if len(maps) == 0 {
		return nil, errors.New("routing: no port maps")
	}
	u := maps[0].numUplinks()
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
// cannot be built (a 255-hop path, a peer out of range) panics at its
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

// MustBuild is Build but panics on error.
func MustBuild(maps []PortMap) *Tables {
	t, err := Build(maps)
	if err != nil {
		panic(err)
	}
	return t
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
