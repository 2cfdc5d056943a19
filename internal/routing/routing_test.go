package routing

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"github.com/opera-net/opera/internal/topology"
)

// hopDists returns the hop distance between every ordered rack pair of
// one slice, d[src][dst], or unreachable where no path leads: a plain BFS
// from each source over the port map, independent of Build. It is the
// distance oracle the tables are checked against, on maps whose paths are
// shorter than unreachable hops, as Build requires.
func hopDists(pm PortMap) [][]int32 {
	n := len(pm)
	d := make([][]int32, n)
	queue := make([]int32, 0, n)
	for src := range d {
		ds := make([]int32, n)
		for i := range ds {
			ds[i] = unreachable
		}
		ds[src] = 0
		queue = append(queue[:0], int32(src))
		for head := 0; head < len(queue); head++ {
			v := queue[head]
			for _, peer := range pm[v] {
				if peer >= 0 && ds[peer] == unreachable {
					ds[peer] = ds[v] + 1
					queue = append(queue, peer)
				}
			}
		}
		d[src] = ds
	}
	return d
}

// maxDist returns the largest finite distance across all slices and pairs
// — the worst-case path length that sizes ε (§4.1).
func maxDist(maps []PortMap) int32 {
	var worst int32
	for _, pm := range maps {
		for _, ds := range hopDists(pm) {
			for _, d := range ds {
				if d != unreachable {
					worst = max(worst, d)
				}
			}
		}
	}
	return worst
}

// buildReference is the builder this package shipped until the
// bit-parallel one replaced it — a BFS from every rack, then a mask fill
// asking of every (src, dst, uplink) whether the peer is one hop closer —
// kept as the oracle Build is compared against. It returns the mask of
// cell (s, src, dst) at (s*n+src)*n+dst, in no table layout of its own.
// It assumes what Build checks: rectangular maps, peers below the rack
// count, paths under unreachable hops.
func buildReference(maps []PortMap) []uint32 {
	n := len(maps[0])
	masks := make([]uint32, len(maps)*n*n)
	for s, pm := range maps {
		d := hopDists(pm)
		for src := 0; src < n; src++ {
			for dst := 0; dst < n; dst++ {
				if dst == src || d[src][dst] == unreachable {
					continue
				}
				var m uint32
				for k, peer := range pm[src] {
					if peer < 0 || int(peer) == src {
						continue
					}
					if d[peer][dst] == d[src][dst]-1 {
						m |= 1 << uint(k)
					}
				}
				masks[(s*n+src)*n+dst] = m
			}
		}
	}
	return masks
}

// diffTables names the first cell in which got differs from the reference
// tables of maps.
func diffTables(got *Tables, maps []PortMap) error {
	n, u := len(maps[0]), maps[0].numUplinks()
	if got.N != n || got.U != u || got.Slices != len(maps) {
		return fmt.Errorf("shape %d×%d×%d, want %d×%d×%d", got.Slices, got.N, got.U, len(maps), n, u)
	}
	want := buildReference(maps)
	for s := range maps {
		for src := 0; src < n; src++ {
			for dst := 0; dst < n; dst++ {
				if g, w := got.Mask(s, src, dst), want[(s*n+src)*n+dst]; g != w {
					return fmt.Errorf("slice %d mask %d→%d = %b, want %b", s, src, dst, g, w)
				}
			}
		}
	}
	return nil
}

// validate checks loop freedom against the BFS oracle: for every (slice,
// src, dst) the mask is empty exactly when dst is unreachable, and every
// uplink in it is usable and leads to a peer exactly one hop closer. This
// is the invariant that guarantees a packet forwarded within a single
// slice strictly approaches its destination.
func validate(t *Tables, maps []PortMap) error {
	if len(maps) != t.Slices {
		return fmt.Errorf("validate: %d maps for %d slices", len(maps), t.Slices)
	}
	for s, pm := range maps {
		dist := hopDists(pm)
		for src := 0; src < t.N; src++ {
			for dst := 0; dst < t.N; dst++ {
				if src == dst {
					continue
				}
				d, m := dist[src][dst], t.Mask(s, src, dst)
				if d == unreachable {
					if m != 0 {
						return fmt.Errorf("slice %d (%d→%d): unreachable but mask %b", s, src, dst, m)
					}
					continue
				}
				if m == 0 {
					return fmt.Errorf("slice %d (%d→%d): reachable (dist %d) but empty mask", s, src, dst, d)
				}
				if m>>uint(t.U) != 0 {
					return fmt.Errorf("slice %d (%d→%d): mask %b beyond %d uplinks", s, src, dst, m, t.U)
				}
				for k := 0; k < t.U; k++ {
					if m&(1<<uint(k)) == 0 {
						continue
					}
					peer := pm[src][k]
					if peer < 0 {
						return fmt.Errorf("slice %d (%d→%d): masked uplink %d unusable", s, src, dst, k)
					}
					if pd := dist[peer][dst]; pd != d-1 {
						return fmt.Errorf("slice %d (%d→%d): uplink %d peer %d at dist %d, want %d",
							s, src, dst, k, peer, pd, d-1)
					}
				}
			}
		}
	}
	return nil
}

// knockOut returns a copy of maps with about one port in every over
// disabled: both directions of the circuit when symmetric, else only the
// direction drawn.
func knockOut(maps []PortMap, rng *rand.Rand, every int, symmetric bool) []PortMap {
	n, u := len(maps[0]), maps[0].numUplinks()
	out := newPortMaps(len(maps), n, u)
	for s, pm := range maps {
		for r, row := range pm {
			copy(out[s][r], row)
		}
		for r, row := range pm {
			for k, peer := range row {
				if peer < 0 || rng.Intn(every) != 0 {
					continue
				}
				out[s][r][k] = -1
				if symmetric && pm[peer][k] == int32(r) {
					out[s][peer][k] = -1
				}
			}
		}
	}
	return out
}

// randomPortMap draws n×u raw ports, each -1, a self-loop or any rack,
// with no symmetry at all.
func randomPortMap(rng *rand.Rand, n, u int) PortMap {
	pm := newPortMaps(1, n, u)[0]
	for r, row := range pm {
		for k := range row {
			switch rng.Intn(6) {
			case 0:
				row[k] = -1
			case 1:
				row[k] = int32(r)
			default:
				row[k] = int32(rng.Intn(n))
			}
		}
	}
	return pm
}

// mustBuild is Build for maps the test knows are valid.
func mustBuild(t testing.TB, maps []PortMap) *Tables {
	t.Helper()
	tb, err := Build(maps)
	if err != nil {
		t.Fatal(err)
	}
	return tb
}

// TestBuildFromMatchesReference checks the form the simulator builds its
// tables in: one port map, refilled slice by slice from the topology.
func TestBuildFromMatchesReference(t *testing.T) {
	for _, src := range []Source{
		OperaSource(topology.MustNewOpera(topology.Config{NumRacks: 16, HostsPerRack: 4, NumSwitches: 4, Seed: 1})),
		ExpanderSource(topology.MustNewExpander(130, 4, 7, 1)),
	} {
		tb, err := BuildFrom(src)
		if err != nil {
			t.Fatal(err)
		}
		if tb.N != src.Racks || tb.U != src.Uplinks || tb.Slices != src.Slices || tb.Built() != src.Slices {
			t.Fatalf("BuildFrom: %d racks × %d uplinks, %d of %d slices built, want %d × %d, %d",
				tb.N, tb.U, tb.Built(), tb.Slices, src.Racks, src.Uplinks, src.Slices)
		}
		if err := diffTables(tb, src.Maps()); err != nil {
			t.Fatal(err)
		}
	}
	wide := Source{Racks: 2, Uplinks: 33, Slices: 1, Fill: func(int, PortMap) {}}
	if _, err := BuildFrom(wide); err == nil {
		t.Fatal("BuildFrom accepted 33 uplinks")
	}
}

func TestBuildMatchesReference(t *testing.T) {
	check := func(t *testing.T, maps []PortMap) {
		t.Helper()
		tb, err := Build(maps)
		if err != nil {
			t.Fatal(err)
		}
		if err := diffTables(tb, maps); err != nil {
			t.Fatal(err)
		}
	}
	operaMaps := func(racks, uplinks int) []PortMap {
		return OperaPortMaps(topology.MustNewOpera(topology.Config{
			NumRacks: racks, HostsPerRack: uplinks, NumSwitches: uplinks, Seed: 1,
		}))
	}
	for _, tc := range []struct {
		name string
		maps []PortMap
	}{
		{"opera16x4", operaMaps(16, 4)},
		{"opera108x6", operaMaps(108, 6)},
		{"expander", ExpanderPortMap(topology.MustNewExpander(130, 4, 7, 1))},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			check(t, tc.maps)
			check(t, knockOut(tc.maps, rng, 10, true))
			check(t, knockOut(tc.maps, rng, 10, false))
			// Sparse enough to fall apart into components.
			check(t, knockOut(tc.maps, rng, 2, true))
		})
	}
	t.Run("raw", func(t *testing.T) {
		rng := rand.New(rand.NewSource(11))
		for _, n := range []int{1, 2, 63, 64, 65, 130} {
			// Every width at which a cell's byte count ⌈u/8⌉ steps.
			for _, u := range []int{1, 3, 7, 8, 9, 15, 16, 17, 24, 25, 31, 32} {
				check(t, []PortMap{randomPortMap(rng, n, u), randomPortMap(rng, n, u)})
			}
		}
		check(t, []PortMap{lineMap(unreachable)}) // the longest path Build accepts: 254 hops
	})
}

// FuzzBuildDifferential feeds Build raw port maps — directed, ragged in
// connectivity, self-loops and dead ports wherever the bytes put them —
// and requires the reference's tables.
func FuzzBuildDifferential(f *testing.F) {
	f.Add(uint8(4), uint8(2), []byte{1, 3, 2, 0, 3, 1, 0, 2})
	f.Add(uint8(65), uint8(3), []byte{0xff, 7, 7, 200, 64, 65})
	f.Add(uint8(1), uint8(1), []byte{})
	f.Fuzz(func(t *testing.T, racks, uplinks uint8, ports []byte) {
		n, u := 1+int(racks)%130, 1+int(uplinks)%32
		pm := newPortMaps(1, n, u)[0]
		for r, row := range pm {
			for k := range row {
				row[k] = -1
				if i := r*u + k; i < len(ports) {
					row[k] = int32(ports[i])%int32(n+1) - 1
				}
			}
		}
		tb, err := Build([]PortMap{pm})
		if err != nil {
			t.Fatal(err)
		}
		if err := diffTables(tb, []PortMap{pm}); err != nil {
			t.Fatal(err)
		}
	})
}

func TestBuildPathTooLong(t *testing.T) {
	// Build refuses a shortest path of unreachable hops or more.
	if _, err := Build([]PortMap{lineMap(300)}); !errors.Is(err, errPathTooLong) {
		t.Fatalf("300-rack line: err = %v, want errPathTooLong", err)
	}
	if _, err := Build([]PortMap{lineMap(unreachable + 1)}); !errors.Is(err, errPathTooLong) {
		t.Fatalf("255-hop line: err = %v, want errPathTooLong", err)
	}
}

func TestLazyBuildsOnLookup(t *testing.T) {
	maps := OperaPortMaps(topology.MustNewOpera(topology.Config{
		NumRacks: 16, HostsPerRack: 4, NumSwitches: 4, Seed: 1,
	}))
	eager := mustBuild(t, maps)
	sourced := 0
	lazy := eager.Lazy(func(s int, pm PortMap) {
		sourced++
		for r, row := range maps[s] {
			copy(pm[r], row)
		}
	})
	if lazy.Built() != 0 || sourced != 0 {
		t.Fatalf("fresh lazy tables: %d slices built, %d sourced", lazy.Built(), sourced)
	}
	for i := 0; i < 3; i++ {
		if got, want := lazy.PickUplink(5, 1, 9, uint32(i)), eager.PickUplink(5, 1, 9, uint32(i)); got != want {
			t.Fatalf("PickUplink = %d, want %d", got, want)
		}
	}
	if lazy.Built() != 1 || sourced != 1 {
		t.Fatalf("after lookups into one slice: %d built, %d sourced", lazy.Built(), sourced)
	}
	if err := diffTables(lazy, maps); err != nil {
		t.Fatal(err)
	}
	if err := validate(lazy, maps); err != nil {
		t.Fatal(err)
	}
	// A new round rebuilds from whatever the source now says, in place.
	maps = knockOut(maps, rand.New(rand.NewSource(3)), 4, true)
	lazy.Invalidate()
	if lazy.Built() != 0 {
		t.Fatalf("%d slices built after Invalidate", lazy.Built())
	}
	if err := diffTables(lazy, maps); err != nil {
		t.Fatal(err)
	}
	if lazy.Built() != lazy.Slices {
		t.Fatalf("%d of %d slices built after a full read", lazy.Built(), lazy.Slices)
	}
}

func lineMap(n int) PortMap {
	// racks in a line: 0-1-2-...-n-1, two uplinks each (left, right).
	pm := make(PortMap, n)
	for r := 0; r < n; r++ {
		left, right := int32(r-1), int32(r+1)
		if r == 0 {
			left = -1
		}
		if r == n-1 {
			right = -1
		}
		pm[r] = []int32{left, right}
	}
	return pm
}

func TestBuildLine(t *testing.T) {
	pm := lineMap(5)
	tb := mustBuild(t, []PortMap{pm})
	// Following the masks from rack 0 reaches rack 4 in 4 hops.
	hops := 0
	for r := 0; r != 4; hops++ {
		if hops == 4 {
			t.Fatalf("no path 0→4 in 4 hops: at rack %d", r)
		}
		r = int(pm[r][tb.PickUplink(0, r, 4, 0)])
	}
	if tb.Mask(0, 2, 2) != 0 {
		t.Fatal("self mask nonempty")
	}
	// From rack 2 toward 4, only the "right" uplink (index 1) helps.
	if m := tb.Mask(0, 2, 4); m != 0b10 {
		t.Fatalf("mask = %b, want 10", m)
	}
	if m := tb.Mask(0, 2, 0); m != 0b01 {
		t.Fatalf("mask = %b, want 01", m)
	}
	if err := validate(tb, []PortMap{pm}); err != nil {
		t.Fatal(err)
	}
}

func TestBuildUnreachable(t *testing.T) {
	pm := PortMap{
		{1, -1},
		{0, -1},
		{3, -1},
		{2, -1},
	}
	tb := mustBuild(t, []PortMap{pm})
	if hopDists(pm)[0][2] != unreachable {
		t.Fatal("test map connects rack 0 to rack 2")
	}
	if tb.Mask(0, 0, 2) != 0 {
		t.Fatal("unreachable pair has next hops")
	}
	if tb.PickUplink(0, 0, 2, 99) != -1 {
		t.Fatal("PickUplink for unreachable should be -1")
	}
	if err := validate(tb, []PortMap{pm}); err != nil {
		t.Fatal(err)
	}
}

func TestBuildErrors(t *testing.T) {
	if _, err := Build(nil); err == nil {
		t.Fatal("empty maps accepted")
	}
	wide := make(PortMap, 2)
	wide[0] = make([]int32, 33)
	wide[1] = make([]int32, 33)
	if _, err := Build([]PortMap{wide}); err == nil {
		t.Fatal(">32 uplinks accepted")
	}
	// inconsistent shapes
	if _, err := Build([]PortMap{lineMap(4), lineMap(5)}); err == nil {
		t.Fatal("inconsistent slice shapes accepted")
	}
	if _, err := Build([]PortMap{{{1, -1}, {0}}}); err == nil {
		t.Fatal("ragged port map accepted")
	}
	if _, err := Build([]PortMap{{{1}, {2}}}); err == nil {
		t.Fatal("peer beyond the rack count accepted")
	}
}

func TestPickUplinkUniform(t *testing.T) {
	// Ring of 4: rack 0 to rack 2 has two equal-cost uplinks.
	pm := PortMap{
		{1, 3},
		{2, 0},
		{3, 1},
		{0, 2},
	}
	tb := mustBuild(t, []PortMap{pm})
	if m := tb.Mask(0, 0, 2); m != 0b11 {
		t.Fatalf("mask = %b, want 11", m)
	}
	counts := map[int]int{}
	for i := 0; i < 1000; i++ {
		counts[tb.PickUplink(0, 0, 2, uint32(i))]++
	}
	if len(counts) != 2 {
		t.Fatalf("uplink choices = %v, want both", counts)
	}
	if math.Abs(float64(counts[0]-counts[1])) > 100 {
		t.Fatalf("spray is unbalanced: %v", counts)
	}
}

func TestPickUplinkHighDraws(t *testing.T) {
	// Rack 0 reaches rack 3 through uplinks 1 and 2: mask 0b110. A draw
	// of 2³¹ or more picks by rnd % 2 like any other, also where int is
	// 32 bits wide.
	pm := PortMap{
		{-1, 1, 2},
		{0, -1, 3},
		{0, 3, -1},
		{-1, 1, 2},
	}
	tb := mustBuild(t, []PortMap{pm})
	if m := tb.Mask(0, 0, 3); m != 0b110 {
		t.Fatalf("mask = %b, want 110", m)
	}
	for _, tc := range []struct {
		rnd  uint32
		want int
	}{{1 << 31, 1}, {1<<31 + 1, 2}, {math.MaxUint32 - 1, 1}, {math.MaxUint32, 2}} {
		if got := tb.PickUplink(0, 0, 3, tc.rnd); got != tc.want {
			t.Errorf("PickUplink(rnd %#x) = %d, want %d", tc.rnd, got, tc.want)
		}
	}
}

// TestAllocsRoutingTables gates the tables' footprint at paper scale
// (108 racks × 6 uplinks, 108 slices), built from the topology's source as
// the simulator builds them: one byte a cell is 1.26 MB for the cycle,
// whether built eagerly or lazily by a full read, and no slice's port map
// outlives its build.
func TestAllocsRoutingTables(t *testing.T) {
	const limit = 1_300_000
	src := OperaSource(topology.MustNewOpera(topology.Config{
		NumRacks: 108, HostsPerRack: 6, NumSwitches: 6, Seed: 1,
	}))
	allocated := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	var eager *Tables
	var err error
	if got := allocated(func() { eager, err = BuildFrom(src) }); err != nil || got > limit {
		t.Errorf("BuildFrom allocated %d B (err %v), want <= %d", got, err, limit)
	}
	got := allocated(func() {
		lazy := eager.Lazy(src.Fill)
		for s := 0; s < lazy.Slices; s++ {
			for src := 0; src < lazy.N; src++ {
				for dst := 0; dst < lazy.N; dst++ {
					lazy.Mask(s, src, dst)
				}
			}
		}
	})
	if got > limit {
		t.Errorf("a fully read Lazy table allocated %d B, want <= %d", got, limit)
	}
}

func TestOperaTables(t *testing.T) {
	o := topology.MustNewOpera(topology.Config{
		NumRacks: 16, HostsPerRack: 4, NumSwitches: 4, Seed: 1,
	})
	maps := OperaPortMaps(o)
	if len(maps) != o.SlicesPerCycle() {
		t.Fatalf("%d maps for %d slices", len(maps), o.SlicesPerCycle())
	}
	tb := mustBuild(t, maps)
	if err := validate(tb, maps); err != nil {
		t.Fatal(err)
	}
	// Every pair reachable every slice (the always-on guarantee, §3.1.2).
	for s := 0; s < tb.Slices; s++ {
		for a := 0; a < tb.N; a++ {
			for b := 0; b < tb.N; b++ {
				if a != b && tb.Mask(s, a, b) == 0 {
					t.Fatalf("slice %d: pair (%d,%d) unreachable", s, a, b)
				}
			}
		}
	}
	// Transitioning switches must never appear in masks.
	for s := 0; s < tb.Slices; s++ {
		for sw := 0; sw < o.Uplinks(); sw++ {
			if !o.IsTransitioning(sw, s) {
				continue
			}
			for a := 0; a < tb.N; a++ {
				for b := 0; b < tb.N; b++ {
					if tb.Mask(s, a, b)&(1<<uint(sw)) != 0 {
						t.Fatalf("slice %d: transitioning switch %d in mask (%d→%d)", s, sw, a, b)
					}
				}
			}
		}
	}
}

func TestOperaPaperWorstCasePathLength(t *testing.T) {
	// §4.1 sizes ε from a worst-case path length of 5 ToR-to-ToR hops for
	// the 108-rack network (Figure 4 shows paths ≤ 5 hops). The builder
	// enforces this via design-time realization testing (§3.3).
	o := topology.MustNewOpera(topology.Config{
		NumRacks: 108, HostsPerRack: 6, NumSwitches: 6, Seed: 1, MaxDiameter: 5,
	})
	maps := OperaPortMaps(o)
	tb := mustBuild(t, maps)
	if err := validate(tb, maps); err != nil {
		t.Fatal(err)
	}
	if max := maxDist(maps); max > 5 {
		t.Fatalf("worst-case path %d hops, paper expects <= 5", max)
	}
}

func TestExpanderPortMap(t *testing.T) {
	e := topology.MustNewExpander(32, 4, 5, 1)
	maps := ExpanderPortMap(e)
	if len(maps) != 1 {
		t.Fatalf("expander should have 1 slice, got %d", len(maps))
	}
	tb := mustBuild(t, maps)
	if err := validate(tb, maps); err != nil {
		t.Fatal(err)
	}
	for a := 0; a < 32; a++ {
		for b := 0; b < 32; b++ {
			if a != b && tb.Mask(0, a, b) == 0 {
				t.Fatalf("pair (%d,%d) unreachable in expander", a, b)
			}
		}
	}
}

// Property: tables built from random connected port maps always validate
// (loop freedom) and agree with direct BFS reachability.
func TestTablesValidateProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 6 + rng.Intn(10)
		u := 2 + rng.Intn(3)
		// Random symmetric port map built from u random matchings.
		pm := make(PortMap, n)
		for r := range pm {
			pm[r] = make([]int32, u)
			for k := range pm[r] {
				pm[r][k] = -1
			}
		}
		for k := 0; k < u; k++ {
			perm := rng.Perm(n)
			for i := 0; i+1 < n; i += 2 {
				a, b := perm[i], perm[i+1]
				pm[a][k] = int32(b)
				pm[b][k] = int32(a)
			}
		}
		tb, err := Build([]PortMap{pm})
		if err != nil {
			return false
		}
		return validate(tb, []PortMap{pm}) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestRuleCountTable1(t *testing.T) {
	// Exact reproduction of Table 1's entry counts.
	want := map[int]int{
		108:  12096,
		252:  65268,
		520:  276120,
		768:  600576,
		1008: 1032192,
		1200: 1461600,
	}
	for _, row := range Table1() {
		if got := row.Entries; got != want[row.Racks] {
			t.Errorf("racks=%d: entries=%d, want %d", row.Racks, got, want[row.Racks])
		}
	}
	// Utilization column (percent, one decimal).
	wantUtil := map[int]float64{108: 0.7, 252: 3.8, 520: 16.2, 768: 35.3, 1008: 60.7, 1200: 85.9}
	for _, row := range Table1() {
		got := math.Round(row.Utilization*1000) / 10
		if math.Abs(got-wantUtil[row.Racks]) > 0.15 {
			t.Errorf("racks=%d: utilization=%.1f%%, want %.1f%%", row.Racks, got, wantUtil[row.Racks])
		}
	}
}

func TestRuleCountDegenerate(t *testing.T) {
	if RuleCount(1, 6) != 0 || RuleCount(10, 0) != 0 {
		t.Fatal("degenerate sizes should count zero rules")
	}
}

func TestCountRulesMatchesModel(t *testing.T) {
	// Table 1's closed form N(N-1) + N(u-1) must equal the footprint of
	// the tables this repository actually builds. The low-latency count is
	// exact: every destination is reachable in every slice. The bulk count
	// is N(u-1) minus the self-loop slices: rack 0 has a self-loop entry
	// in exactly one matching, shown for GroupSize slices per cycle, and
	// one port is transitioning each slice.
	o := topology.MustNewOpera(topology.Config{
		NumRacks: 24, HostsPerRack: 4, NumSwitches: 4, Seed: 1,
	})
	maps := OperaPortMaps(o)
	tb := mustBuild(t, maps)
	ll, bulk := countRules(tb, maps)
	n := o.NumRacks()
	u := o.Uplinks()
	if ll != n*(n-1) {
		t.Fatalf("low-latency rules = %d, want %d", ll, n*(n-1))
	}
	// Rack 0's self-loop is shown for GroupSize slices per cycle; in one
	// of those its port is also the transitioning one (already excluded),
	// so G-1 additional slices lose a bulk rule.
	wantBulk := n*(u-1) - (o.PairWindowsPerCycle() - 1)
	if bulk != wantBulk {
		t.Fatalf("bulk rules = %d, want %d", bulk, wantBulk)
	}
	// The model is within one self-loop hold of the measured count.
	model := RuleCount(n, u)
	if diff := model - (ll + bulk); diff < 0 || diff > o.PairWindowsPerCycle() {
		t.Fatalf("model %d vs measured %d", model, ll+bulk)
	}
}

func BenchmarkBuildOperaTables108(b *testing.B) {
	src := OperaSource(topology.MustNewOpera(topology.Config{
		NumRacks: 108, HostsPerRack: 6, NumSwitches: 6, Seed: 1,
	}))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BuildFrom(src); err != nil {
			b.Fatal(err)
		}
	}
}
