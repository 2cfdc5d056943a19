package stats

// TimeSeries accumulates byte counts into fixed-width time bins and reports
// per-bin throughput. It backs the "throughput over time" plots (Figure 8).
type TimeSeries struct {
	binWidth float64 // seconds per bin
	bins     []float64
}

// NewTimeSeries returns a series with the given bin width in seconds.
func NewTimeSeries(binWidthSeconds float64) *TimeSeries {
	if binWidthSeconds <= 0 {
		panic("stats: non-positive bin width")
	}
	return &TimeSeries{binWidth: binWidthSeconds}
}

// Record adds amount (e.g. bytes) at time t seconds.
func (ts *TimeSeries) Record(t, amount float64) {
	if t < 0 {
		panic("stats: negative time")
	}
	bin := int(t / ts.binWidth)
	for len(ts.bins) <= bin {
		ts.bins = append(ts.bins, 0)
	}
	ts.bins[bin] += amount
}

// NumBins returns the number of bins touched so far.
func (ts *TimeSeries) NumBins() int { return len(ts.bins) }

// BinWidth returns the width of each bin in seconds.
func (ts *TimeSeries) BinWidth() float64 { return ts.binWidth }

// Rate returns the per-second rate in bin i (total amount / bin width).
func (ts *TimeSeries) Rate(i int) float64 {
	if i < 0 || i >= len(ts.bins) {
		return 0
	}
	return ts.bins[i] / ts.binWidth
}

// Total returns the sum over all bins.
func (ts *TimeSeries) Total() float64 {
	var sum float64
	for _, b := range ts.bins {
		sum += b
	}
	return sum
}

// Rates returns the per-second rate for every bin.
func (ts *TimeSeries) Rates() []float64 {
	out := make([]float64, len(ts.bins))
	for i := range ts.bins {
		out[i] = ts.Rate(i)
	}
	return out
}

// Counter is a monotonically increasing tally with byte/packet convenience
// methods, used by simulator components to expose counters cheaply.
type Counter struct {
	Packets uint64
	Bytes   uint64
}

// Add records one packet of the given size.
func (c *Counter) Add(bytes int) {
	c.Packets++
	c.Bytes += uint64(bytes)
}
