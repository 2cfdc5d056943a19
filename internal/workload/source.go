package workload

import (
	"cmp"
	"slices"
)

// Source is a lazy, possibly unbounded stream of flows. Next returns the
// next FlowSpec (whose Arrival field is the absolute virtual arrival time)
// and reports whether one was produced; once it returns false the source
// is exhausted and must keep returning false.
//
// Sources yield flows in nondecreasing Arrival order, which is what lets
// the cluster drive them lazily — one pending arrival event at a time —
// instead of materializing the whole flow list up front. A source that
// violates the ordering still works (late flows are admitted immediately,
// like Cluster.AddFlow with a past arrival), but loses the O(active-flows)
// scheduling guarantee for the out-of-order prefix.
//
// Sources are single-use iterators: generators own RNG or file state that
// advances with every Next. Build a fresh Source per simulation.
type Source interface {
	Next() (FlowSpec, bool)
}

// SourceFunc adapts a plain function to the Source interface.
type SourceFunc func() (FlowSpec, bool)

// Next implements Source.
func (f SourceFunc) Next() (FlowSpec, bool) { return f() }

// Materialized is an optional Source capability: a source that already
// holds its complete flow list exposes it so the cluster can schedule
// every arrival in one shot. Lazy pumping earns nothing once the list
// exists in memory — and one-shot scheduling keeps the event interleaving
// (and therefore packet-level results) identical to the historical
// AddFlows path. Wrapping combinators (Take, TagSource, …) deliberately
// hide the capability, since they change the stream.
type Materialized interface {
	Source
	// Specs returns the full flow list in arrival order. Callers must not
	// mutate it.
	Specs() []FlowSpec
}

// specSource is FromSpecs' implementation: a Materialized list iterator.
type specSource struct {
	ordered []FlowSpec
	i       int
}

func (ss *specSource) Next() (FlowSpec, bool) {
	if ss.i >= len(ss.ordered) {
		return FlowSpec{}, false
	}
	s := ss.ordered[ss.i]
	ss.i++
	return s, true
}

func (ss *specSource) Specs() []FlowSpec { return ss.ordered }

// FromSpecs adapts a materialized flow list into a Source: the specs are
// copied, stably sorted by arrival time (preserving input order among
// simultaneous arrivals), and yielded one at a time. This is the bridge
// from every eager generator in this package — Shuffle, Permutation,
// HotRack, Skew — and from legacy []FlowSpec workloads. The result
// implements Materialized.
func FromSpecs(specs []FlowSpec) Source {
	// Sort a permutation and gather through it. FlowSpec holds a string, so
	// sorting the specs themselves makes every swap a 56-byte move behind a
	// write barrier; with the input index as tie-break an unstable sort of
	// indices yields the stable order.
	order := make([]int, len(specs))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int {
		if c := cmp.Compare(specs[a].Arrival, specs[b].Arrival); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	ordered := make([]FlowSpec, len(specs))
	for i, j := range order {
		ordered[i] = specs[j]
	}
	return &specSource{ordered: ordered}
}

// Drain materializes a source into a flow list. It is the inverse of
// FromSpecs, used by legacy []FlowSpec call sites and tests; draining an
// unbounded source does not terminate, so bound it with Take first.
func Drain(s Source) []FlowSpec {
	var out []FlowSpec
	for {
		spec, ok := s.Next()
		if !ok {
			return out
		}
		out = append(out, spec)
	}
}

// Take caps a source at the first n flows.
func Take(s Source, n int) Source {
	return SourceFunc(func() (FlowSpec, bool) {
		if n <= 0 {
			return FlowSpec{}, false
		}
		n--
		return s.Next()
	})
}

// CapBytes clamps every flow's size to at most maxBytes (0 = no cap) — the
// streaming form of the tail cap the small-scale Poisson sweeps apply so
// test runtimes stay bounded.
func CapBytes(s Source, maxBytes int64) Source {
	if maxBytes <= 0 {
		return s
	}
	return SourceFunc(func() (FlowSpec, bool) {
		spec, ok := s.Next()
		if ok && spec.Bytes > maxBytes {
			spec.Bytes = maxBytes
		}
		return spec, ok
	})
}

// TagSource labels every flow of a source with tag.
func TagSource(tag string, s Source) Source {
	return SourceFunc(func() (FlowSpec, bool) {
		spec, ok := s.Next()
		if ok {
			spec.Tag = tag
		}
		return spec, ok
	})
}

// BulkSource application-tags every flow of a source for bulk service
// regardless of size (§3.4).
func BulkSource(s Source) Source {
	return SourceFunc(func() (FlowSpec, bool) {
		spec, ok := s.Next()
		if ok {
			spec.Bulk = true
		}
		return spec, ok
	})
}
