package telemetry

import "fmt"

// The collector's trailing windows hold windowBins bins of windowBin
// seconds: 1 ms is the bin width of the exact DeliveredBytes series.
const (
	windowBin  = 0.001
	windowBins = 128
)

// Opts configures a Collector — the knob sim.RetainSketch exposes.
type Opts struct {
	// Alpha is the quantile sketches' relative-error bound; 0 means
	// DefaultAlpha (1%).
	Alpha float64
}

// Validate reports whether the options are usable: Alpha in (0,1) or the
// 0 default. Constructors apply it so a bad bound fails loudly at
// construction with a clear message rather than as NaN quantiles
// downstream (NaN in particular slips past naive range checks: it compares
// false against every bound).
func (o Opts) Validate() error {
	if o.Alpha != 0 && !(o.Alpha > 0 && o.Alpha < 1) { // also rejects NaN
		return fmt.Errorf("telemetry: sketch alpha %v outside (0,1)", o.Alpha)
	}
	return nil
}

func (o Opts) withDefaults() Opts {
	if o.Alpha == 0 {
		o.Alpha = DefaultAlpha
	}
	return o
}

// TagTally aggregates one workload tag's flows under sketch retention:
// completion counts, the FCT sketch of the finished ones, and their
// delivered application bytes. Bytes counts completed flows only — the
// in-flight bytes of unfinished flows are folded in when they complete,
// unlike the exact path which can scan retained flows at any time.
type TagTally struct {
	Sketch      *Sketch
	Done, Total int
	Bytes       int64
}

// Collector is the flat-memory aggregate sim.Metrics drives under sketch
// retention: one FCT sketch per service class, one per workload tag, and
// trailing windows of delivered / goodput / uplink bytes. All methods are
// O(1) (amortized) per observation; total state is O(classes + tags +
// window + sketch buckets) regardless of flow count.
type Collector struct {
	opts    Opts
	classes []*Sketch
	tags    map[string]*TagTally

	delivered *Window
	goodput   *Window
	uplink    *Window
}

// NewCollector returns an empty collector with per-class sketches for
// class indices [0, numClasses). It panics if the options fail Validate;
// callers that take options from external input (opera.New's retention
// policy) validate first and return the error.
func NewCollector(opts Opts, numClasses int) *Collector {
	if err := opts.Validate(); err != nil {
		panic(err)
	}
	opts = opts.withDefaults()
	c := &Collector{
		opts:      opts,
		classes:   make([]*Sketch, numClasses),
		delivered: NewWindow(windowBin, windowBins),
		goodput:   NewWindow(windowBin, windowBins),
		uplink:    NewWindow(windowBin, windowBins),
	}
	for i := range c.classes {
		c.classes[i] = NewSketch(opts.Alpha)
	}
	return c
}

// Alpha returns the sketches' pinned relative-error bound.
func (c *Collector) Alpha() float64 { return c.opts.Alpha }

// FlowAdded accounts a newly registered flow (tagged ones count toward
// their tag's total).
func (c *Collector) FlowAdded(tag string) {
	if tag == "" {
		return
	}
	c.tally(tag).Total++
}

// FlowDone absorbs a completed flow: its completion time enters the class
// (and tag) sketch, and its delivered bytes the tag tally. After this the
// flow's state can be released.
func (c *Collector) FlowDone(class int, tag string, fctMicros float64, bytesRcvd int64) {
	c.classes[class].Add(fctMicros)
	if tag == "" {
		return
	}
	t := c.tally(tag)
	t.Done++
	t.Bytes += bytesRcvd
	t.Sketch.Add(fctMicros)
}

func (c *Collector) tally(tag string) *TagTally {
	t := c.tags[tag]
	if t == nil {
		if c.tags == nil {
			c.tags = make(map[string]*TagTally)
		}
		t = &TagTally{Sketch: NewSketch(c.opts.Alpha)}
		c.tags[tag] = t
	}
	return t
}

// RecordDelivered accounts application bytes arriving at a receiver.
func (c *Collector) RecordDelivered(tSeconds, bytes float64) {
	c.delivered.Record(tSeconds, bytes)
}

// RecordTax accounts one delivery's bandwidth-tax inputs: goodput bytes
// and their ToR-to-ToR traversal bytes.
func (c *Collector) RecordTax(tSeconds, goodput, uplink float64) {
	c.goodput.Record(tSeconds, goodput)
	c.uplink.Record(tSeconds, uplink)
}

// ClassSketch returns the FCT sketch of one service class.
func (c *Collector) ClassSketch(class int) *Sketch { return c.classes[class] }

// Merged returns a fresh sketch holding every class's observations —
// the "all flows" distribution. Classes partition flows, so this equals
// the sketch a single all-class feed would have produced.
func (c *Collector) Merged() *Sketch {
	s := NewSketch(c.opts.Alpha)
	for _, cs := range c.classes {
		s.Merge(cs)
	}
	return s
}

// Tags returns the per-tag tallies (nil map when no flow was tagged).
// Callers must not mutate.
func (c *Collector) Tags() map[string]*TagTally { return c.tags }

// Merge folds other's tally into t. Both sketches must share an alpha;
// TryMerge's error is propagated and t is left unchanged on mismatch.
func (t *TagTally) Merge(other *TagTally) error {
	if other == nil {
		return nil
	}
	if err := t.Sketch.TryMerge(other.Sketch); err != nil {
		return err
	}
	t.Done += other.Done
	t.Total += other.Total
	t.Bytes += other.Bytes
	return nil
}

// Merge folds other into c: per-class and per-tag sketches merge bucket-
// exactly, tag tallies and window totals add, and the trailing windows
// combine bin-aligned (see Window.Merge). Both collectors must have been
// built with identical options and class counts — the coordinator-side
// invariant for shards of one sweep cell — and an error is returned
// otherwise, before anything merges (matching options make every inner
// merge infallible, since all sketches inherit their alpha from the
// options and every window has the one constant geometry). other is left
// unchanged.
func (c *Collector) Merge(other *Collector) error {
	if other == nil {
		return nil
	}
	if other.opts != c.opts {
		return fmt.Errorf("telemetry: merging collectors with options %+v vs %+v", c.opts, other.opts)
	}
	if len(other.classes) != len(c.classes) {
		return fmt.Errorf("telemetry: merging collectors with %d vs %d classes", len(c.classes), len(other.classes))
	}
	for i, s := range other.classes {
		if err := c.classes[i].TryMerge(s); err != nil {
			return err
		}
	}
	for tag, t := range other.tags {
		if err := c.tally(tag).Merge(t); err != nil {
			return err
		}
	}
	if err := c.delivered.Merge(other.delivered); err != nil {
		return err
	}
	if err := c.goodput.Merge(other.goodput); err != nil {
		return err
	}
	return c.uplink.Merge(other.uplink)
}

// Delivered returns the trailing delivered-bytes window.
func (c *Collector) Delivered() *Window { return c.delivered }

// Goodput returns the trailing inter-rack goodput window.
func (c *Collector) Goodput() *Window { return c.goodput }

// Uplink returns the trailing ToR-to-ToR traversal-bytes window.
func (c *Collector) Uplink() *Window { return c.uplink }

// WindowTax is the bandwidth tax over the trailing window only (uplink
// bytes ÷ goodput bytes − 1), or 0 while the window holds no goodput.
func (c *Collector) WindowTax() float64 {
	if good := c.goodput.WindowTotal(); good > 0 {
		return c.uplink.WindowTotal()/good - 1
	}
	return 0
}
