package telemetry

// Wire codec: a compact, versioned binary encoding of a Collector, so
// process-sharded sweeps can stream collector state between workers and a
// coordinator and merge it losslessly.
//
// Collector implements encoding.BinaryMarshaler / BinaryUnmarshaler. The
// format is deterministic — encoding a value twice yields identical bytes
// (map-backed tag tallies are written in sorted name order) — and exact:
// floats travel as their IEEE-754 bit patterns, so a decoded value reads
// out exactly as the original and merging decoded shards produces
// byte-for-byte the same state as merging the originals. Counts use
// varints, which keeps a six-decade 1%-alpha sketch around 1–2 KiB.
//
// Layout: one kind byte ('C'), one version byte, the collector's alpha,
// then its class sketches, its tag tallies (each after its name) and its
// delivered, goodput and uplink windows. The alpha and the window geometry
// are the collector's alone: a sketch is written as its counts and
// buckets, a window as its head, total and live bins. Decoders reject
// other kinds and versions with ErrCodecVersion, and any truncated or
// out-of-bounds payload with an error wrapping ErrCorrupt — a partial
// frame from a killed worker is a clean error, never a silently wrong
// merge.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"
)

const (
	codecVersion = 2

	kindCollector byte = 'C'
)

// ErrCodecVersion is returned when decoding an encoding whose kind or
// version this build does not understand, such as a version-1 collector,
// which repeated the alpha in every sketch and the geometry in every
// window.
var ErrCodecVersion = errors.New("telemetry: unsupported codec kind or version")

// ErrCorrupt is returned (wrapped, with detail) when an encoding is
// truncated or internally inconsistent.
var ErrCorrupt = errors.New("telemetry: corrupt encoding")

// maxCodecElems bounds decoded element counts (buckets, tags, classes,
// name bytes) so a corrupt length prefix cannot become a
// multi-gigabyte allocation.
const maxCodecElems = 1 << 24

// The smallest encodings, which bound the class and tag counts by the
// bytes left: a class sketch is a count, three floats, a zero count, a base
// and a bucket count (28 B); a tag adds a name length and three varints.
const minSketchBytes, minTagBytes = 28, 32

// wbuf is an append-only encode buffer.
type wbuf struct{ b []byte }

func (w *wbuf) uvarint(v uint64) { w.b = binary.AppendUvarint(w.b, v) }
func (w *wbuf) varint(v int64)   { w.b = binary.AppendVarint(w.b, v) }
func (w *wbuf) f64(v float64)    { w.b = binary.LittleEndian.AppendUint64(w.b, math.Float64bits(v)) }
func (w *wbuf) str(s string)     { w.uvarint(uint64(len(s))); w.b = append(w.b, s...) }

// rbuf is a consume-only decode buffer; the first error sticks and turns
// every subsequent read into a zero-value no-op, so decoders can run
// straight-line and check err once.
type rbuf struct {
	b   []byte
	err error
}

func (r *rbuf) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: "+format, append([]any{ErrCorrupt}, args...)...)
	}
}

func (r *rbuf) header() {
	if len(r.b) < 2 {
		r.fail("truncated header")
		return
	}
	k, v := r.b[0], r.b[1]
	r.b = r.b[2:]
	if k != kindCollector || v != codecVersion {
		r.err = fmt.Errorf("%w: kind %q version %d (want %q version %d)",
			ErrCodecVersion, k, v, kindCollector, codecVersion)
	}
}

func (r *rbuf) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.fail("truncated uvarint")
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *rbuf) varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b)
	if n <= 0 {
		r.fail("truncated varint")
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *rbuf) f64() float64 {
	if r.err != nil {
		return 0
	}
	if len(r.b) < 8 {
		r.fail("truncated float")
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.b))
	r.b = r.b[8:]
	return v
}

// count reads a length prefix for a sequence encoded in-line and bounds
// it, both against maxCodecElems and against the bytes actually remaining
// (elemSize ≥ 1 bytes per element), so corrupt prefixes fail before
// allocation.
func (r *rbuf) count(what string, elemSize int) int {
	v := r.uvarint()
	if r.err != nil {
		return 0
	}
	if v > maxCodecElems || int(v) > len(r.b)/elemSize+1 {
		r.fail("%s count %d out of bounds", what, v)
		return 0
	}
	return int(v)
}

func (r *rbuf) str() string {
	n := r.count("string", 1)
	if r.err != nil {
		return ""
	}
	if len(r.b) < n {
		r.fail("truncated string")
		return ""
	}
	s := string(r.b[:n])
	r.b = r.b[n:]
	return s
}

// done errors unless the buffer was consumed exactly.
func (r *rbuf) done() error {
	if r.err != nil {
		return r.err
	}
	if len(r.b) != 0 {
		return fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(r.b))
	}
	return nil
}

// --- Sketch ---

func (s *Sketch) marshalTo(w *wbuf) {
	w.uvarint(s.count)
	w.f64(s.sum)
	w.f64(s.min)
	w.f64(s.max)
	w.uvarint(s.zero)
	base, n := s.span()
	w.varint(int64(base))
	w.uvarint(uint64(n))
	for idx, end := base, base+n; idx < end; {
		c, m := s.run(idx, end)
		for _, v := range c {
			w.uvarint(v)
		}
		for range m - len(c) {
			w.uvarint(0)
		}
		idx += m
	}
}

// unmarshalFrom decodes into an empty sketch built at its collector's
// alpha.
func (s *Sketch) unmarshalFrom(r *rbuf) {
	s.count = r.uvarint()
	s.sum = r.f64()
	s.min = r.f64()
	s.max = r.f64()
	s.zero = r.uvarint()
	base := r.varint()
	n := r.count("sketch bucket", 1)
	if r.err != nil {
		return
	}
	s.base = int(base)
	if n == 0 {
		return
	}
	// Buckets lie within the indices a float64 observation maps to, so
	// the page table a merge builds to span two decoded sketches is
	// bounded: 2.3 KB at α = 1%, 23 KB at α = 0.1%.
	lo, hi := int64(s.index(minIndexable)), int64(s.index(math.MaxFloat64))
	if base < lo || base > hi-int64(n)+1 {
		r.fail("sketch buckets from %d (%d of them) outside [%d, %d]", base, n, lo, hi)
		return
	}
	s.flat = make([]uint64, n)
	for i := range s.flat {
		s.flat[i] = r.uvarint()
	}
}

// --- Window ---

func (w *Window) marshalTo(b *wbuf) {
	b.varint(w.head)
	b.f64(w.total)
	// Live bins only, oldest first; slots outside the live range are
	// always zero, so this is lossless.
	first, n := w.bounds()
	for bin := first; bin < first+n; bin++ {
		b.f64(w.ring[bin%windowBins])
	}
}

// unmarshalFrom decodes into an empty window.
func (w *Window) unmarshalFrom(r *rbuf) {
	w.head = r.varint()
	if r.err == nil && w.head < -1 {
		r.fail("window head %d", w.head)
	}
	w.total = r.f64()
	if r.err != nil {
		return
	}
	first, n := w.bounds()
	for bin := first; bin < first+n; bin++ {
		w.ring[bin%windowBins] = r.f64()
	}
}

// --- TagTally ---

func (t *TagTally) marshalTo(w *wbuf) {
	t.Sketch.marshalTo(w)
	w.varint(int64(t.Done))
	w.varint(int64(t.Total))
	w.varint(t.Bytes)
}

func (t *TagTally) unmarshalFrom(r *rbuf) {
	t.Sketch.unmarshalFrom(r)
	t.Done = int(r.varint())
	t.Total = int(r.varint())
	t.Bytes = r.varint()
}

// --- Collector ---

// MarshalBinary encodes the collector — options, per-class and per-tag
// sketches, trailing windows — in the telemetry wire format. Tags are
// written in sorted name order, so the encoding is a deterministic
// function of the collector's state.
func (c *Collector) MarshalBinary() ([]byte, error) {
	var w wbuf
	w.b = append(w.b, kindCollector, codecVersion)
	w.f64(c.opts.Alpha)
	w.uvarint(uint64(len(c.classes)))
	for _, s := range c.classes {
		s.marshalTo(&w)
	}
	names := make([]string, 0, len(c.tags))
	for name := range c.tags {
		names = append(names, name)
	}
	sort.Strings(names)
	w.uvarint(uint64(len(names)))
	for _, name := range names {
		w.str(name)
		c.tags[name].marshalTo(&w)
	}
	c.delivered.marshalTo(&w)
	c.goodput.marshalTo(&w)
	c.uplink.marshalTo(&w)
	return w.b, nil
}

// UnmarshalBinary decodes an encoding produced by MarshalBinary into c,
// replacing its state. The receiver may be the zero Collector; the decoded
// collector reads out and encodes exactly as the encoded one, so merging
// after decode is indistinguishable from merging in-process. On error c is left
// unchanged.
func (c *Collector) UnmarshalBinary(data []byte) error {
	r := rbuf{b: data}
	r.header()
	opts := Opts{Alpha: r.f64()}
	if r.err == nil {
		if err := opts.Validate(); err != nil {
			r.fail("collector options: %v", err)
		} else if opts != opts.withDefaults() {
			// Encoded collectors always carry resolved options; raw zeros
			// would silently re-default on a future version skew.
			r.fail("collector options not resolved: %+v", opts)
		}
	}
	numClasses := r.count("collector class", minSketchBytes)
	if r.err != nil {
		return r.err
	}
	fresh := newCollector(opts, numClasses)
	for _, s := range fresh.classes {
		s.unmarshalFrom(&r)
	}
	numTags := r.count("collector tag", minTagBytes)
	if numTags > 0 {
		fresh.tags = make(map[string]*TagTally, numTags)
	}
	for i := 0; i < numTags && r.err == nil; i++ {
		name := r.str()
		if _, dup := fresh.tags[name]; dup {
			r.fail("duplicate tag %q", name)
		}
		fresh.tally(name).unmarshalFrom(&r)
	}
	fresh.delivered.unmarshalFrom(&r)
	fresh.goodput.unmarshalFrom(&r)
	fresh.uplink.unmarshalFrom(&r)
	if err := r.done(); err != nil {
		return err
	}
	*c = fresh
	return nil
}
