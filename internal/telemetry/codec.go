package telemetry

// Wire codec: a compact, versioned binary encoding of a Collector, so
// process-sharded sweeps can stream collector state between workers and a
// coordinator and merge it losslessly.
//
// Collector implements encoding.BinaryMarshaler / BinaryUnmarshaler; its
// sketches, tag tallies and windows are encoded nested inside it, each as
// its own kind-tagged object. The format is deterministic — encoding a
// value twice yields identical bytes (map-backed tag tallies are written
// in sorted name order) — and exact: floats travel as their IEEE-754 bit
// patterns, so a decoded value is deeply equal to the original and
// merging decoded shards produces byte-for-byte the same state as merging
// the originals. Counts use varints, which keeps a six-decade 1%-alpha
// sketch around 1–2 KiB.
//
// Layout (all objects): one kind byte, one version byte, then the
// version's payload. Decoders reject unknown kinds and versions with
// ErrCodecVersion, and any truncated or out-of-bounds payload with an
// error wrapping ErrCorrupt — a partial frame from a killed worker is a
// clean error, never a silently wrong merge.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"
)

const (
	codecVersion = 1

	kindSketch    byte = 'S'
	kindWindow    byte = 'W'
	kindTagTally  byte = 'T'
	kindCollector byte = 'C'
)

// ErrCodecVersion is returned when decoding an encoding whose kind or
// version this build does not understand.
var ErrCodecVersion = errors.New("telemetry: unsupported codec kind or version")

// ErrCorrupt is returned (wrapped, with detail) when an encoding is
// truncated or internally inconsistent.
var ErrCorrupt = errors.New("telemetry: corrupt encoding")

// maxCodecElems bounds decoded element counts (buckets, bins, tags,
// classes, name bytes) so a corrupt length prefix cannot become a
// multi-gigabyte allocation.
const maxCodecElems = 1 << 24

// wbuf is an append-only encode buffer.
type wbuf struct{ b []byte }

func (w *wbuf) header(kind byte) { w.b = append(w.b, kind, codecVersion) }
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

func (r *rbuf) header(kind byte) {
	if r.err != nil {
		return
	}
	if len(r.b) < 2 {
		r.fail("truncated header")
		return
	}
	k, v := r.b[0], r.b[1]
	r.b = r.b[2:]
	if k != kind || v != codecVersion {
		r.err = fmt.Errorf("%w: kind %q version %d (want %q version %d)",
			ErrCodecVersion, k, v, kind, codecVersion)
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

// capacity reads a declared-geometry prefix (a window's span): it bounds
// the allocation but, unlike count, is not limited by remaining bytes —
// an empty window legitimately declares 128 bins and encodes none.
func (r *rbuf) capacity(what string) int {
	v := r.uvarint()
	if r.err != nil {
		return 0
	}
	if v > maxCodecElems {
		r.fail("%s capacity %d out of bounds", what, v)
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

// windowGeometry fails unless a decoded window geometry is the collector's
// constant one: a blob with any other geometry could not merge with the
// collectors this package builds.
func (r *rbuf) windowGeometry(bin float64, bins int64) {
	if r.err == nil && (bin != windowBin || bins != windowBins) {
		r.fail("window geometry %v s × %d bins (want %v s × %d)", bin, bins, windowBin, windowBins)
	}
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
	w.header(kindSketch)
	w.f64(s.alpha)
	w.uvarint(s.count)
	w.f64(s.sum)
	w.f64(s.min)
	w.f64(s.max)
	w.uvarint(s.zero)
	w.varint(int64(s.base))
	w.uvarint(uint64(len(s.buckets)))
	for _, c := range s.buckets {
		w.uvarint(c)
	}
}

func (s *Sketch) unmarshalFrom(r *rbuf) {
	r.header(kindSketch)
	alpha := r.f64()
	if r.err == nil && !(alpha > 0 && alpha < 1) { // rejects NaN too
		r.fail("sketch alpha %v outside (0,1)", alpha)
	}
	count := r.uvarint()
	sum := r.f64()
	min := r.f64()
	max := r.f64()
	zero := r.uvarint()
	base := r.varint()
	n := r.count("sketch bucket", 1)
	if r.err != nil {
		return
	}
	fresh := NewSketch(alpha)
	// Buckets outside the indices a float64 observation maps to would make
	// a merge allocate the gap between two such sketches.
	lo, hi := int64(fresh.index(minIndexable)), int64(fresh.index(math.MaxFloat64))
	if n > 0 && (base < lo || base > hi-int64(n)+1) {
		r.fail("sketch buckets from %d (%d of them) outside [%d, %d]", base, n, lo, hi)
		return
	}
	fresh.count = count
	fresh.sum = sum
	fresh.min = min
	fresh.max = max
	fresh.zero = zero
	fresh.base = int(base)
	if n > 0 {
		fresh.buckets = make([]uint64, n)
		for i := range fresh.buckets {
			fresh.buckets[i] = r.uvarint()
		}
	}
	if r.err != nil {
		return
	}
	*s = *fresh
}

// --- Window ---

func (w *Window) marshalTo(b *wbuf) {
	b.header(kindWindow)
	b.f64(w.binWidth)
	b.uvarint(uint64(len(w.ring)))
	b.varint(w.head)
	b.f64(w.total)
	// Live bins only, oldest first; slots outside the live range are
	// always zero, so this is lossless.
	first, n := w.bounds()
	for bin := first; bin < first+n; bin++ {
		b.f64(w.ring[bin%int64(len(w.ring))])
	}
}

func (w *Window) unmarshalFrom(r *rbuf) {
	r.header(kindWindow)
	binWidth := r.f64()
	if r.err == nil && !(binWidth > 0) { // rejects NaN too
		r.fail("window bin width %v not positive", binWidth)
	}
	span := r.capacity("window bin")
	if r.err == nil && span == 0 {
		r.fail("window with zero bins")
	}
	head := r.varint()
	if r.err == nil && head < -1 {
		r.fail("window head %d", head)
	}
	total := r.f64()
	if r.err != nil {
		return
	}
	fresh := NewWindow(binWidth, span)
	fresh.head = head
	fresh.total = total
	first, n := fresh.bounds()
	for bin := first; bin < first+n; bin++ {
		fresh.ring[bin%int64(span)] = r.f64()
	}
	if r.err != nil {
		return
	}
	*w = *fresh
}

// --- TagTally ---

func (t *TagTally) marshalTo(w *wbuf) {
	w.header(kindTagTally)
	t.Sketch.marshalTo(w)
	w.varint(int64(t.Done))
	w.varint(int64(t.Total))
	w.varint(t.Bytes)
}

func (t *TagTally) unmarshalFrom(r *rbuf) {
	r.header(kindTagTally)
	var s Sketch
	s.unmarshalFrom(r)
	done := r.varint()
	total := r.varint()
	bytes := r.varint()
	if r.err != nil {
		return
	}
	t.Sketch = &s
	t.Done = int(done)
	t.Total = int(total)
	t.Bytes = bytes
}

// --- Collector ---

// MarshalBinary encodes the collector — options, per-class and per-tag
// sketches, trailing windows — in the telemetry wire format. Tags are
// written in sorted name order, so the encoding is a deterministic
// function of the collector's state.
func (c *Collector) MarshalBinary() ([]byte, error) {
	var w wbuf
	w.header(kindCollector)
	w.f64(c.opts.Alpha)
	w.f64(windowBin)
	w.varint(windowBins)
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
// collector is deeply equal to the encoded one, so merging after decode is
// indistinguishable from merging in-process.
func (c *Collector) UnmarshalBinary(data []byte) error {
	r := rbuf{b: data}
	r.header(kindCollector)
	opts := Opts{Alpha: r.f64()}
	bin := r.f64()
	r.windowGeometry(bin, r.varint())
	if r.err == nil {
		if err := opts.Validate(); err != nil {
			r.fail("collector options: %v", err)
		} else if opts != opts.withDefaults() {
			// Encoded collectors always carry resolved options; raw zeros
			// would silently re-default on a future version skew.
			r.fail("collector options not resolved: %+v", opts)
		}
	}
	numClasses := r.count("collector class", 2)
	if r.err != nil {
		return r.err
	}
	fresh := &Collector{opts: opts, classes: make([]*Sketch, numClasses)}
	for i := range fresh.classes {
		var s Sketch
		s.unmarshalFrom(&r)
		// A sketch at another alpha could not merge into Merged or into
		// another collector's sketches.
		if r.err == nil && s.alpha != opts.Alpha {
			r.fail("class %d sketch alpha %v (collector %v)", i, s.alpha, opts.Alpha)
		}
		fresh.classes[i] = &s
	}
	numTags := r.count("collector tag", 2)
	if r.err != nil {
		return r.err
	}
	if numTags > 0 {
		fresh.tags = make(map[string]*TagTally, numTags)
		for i := 0; i < numTags; i++ {
			name := r.str()
			var t TagTally
			t.unmarshalFrom(&r)
			if r.err == nil && t.Sketch.alpha != opts.Alpha {
				r.fail("tag %q sketch alpha %v (collector %v)", name, t.Sketch.alpha, opts.Alpha)
			}
			if r.err != nil {
				return r.err
			}
			if _, dup := fresh.tags[name]; dup {
				r.fail("duplicate tag %q", name)
				return r.err
			}
			fresh.tags[name] = &t
		}
	}
	var delivered, goodput, uplink Window
	delivered.unmarshalFrom(&r)
	goodput.unmarshalFrom(&r)
	uplink.unmarshalFrom(&r)
	for _, w := range []*Window{&delivered, &goodput, &uplink} {
		r.windowGeometry(w.binWidth, int64(len(w.ring)))
	}
	if err := r.done(); err != nil {
		return err
	}
	fresh.delivered = &delivered
	fresh.goodput = &goodput
	fresh.uplink = &uplink
	*c = *fresh
	return nil
}
