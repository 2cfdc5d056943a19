package telemetry

import "fmt"

// Window accumulates amounts into windowBin-second time bins like
// stats.TimeSeries, but retains only the trailing windowBins bins — a
// ring — plus an exact running total, so unbounded runs hold O(bins) state
// instead of one bin per elapsed interval. It backs the throughput and bandwidth-tax
// series of sketch-retention runs: the recent window stays inspectable
// while month-old bins are forgotten (their contribution survives in
// Total).
//
// Record times must be non-negative; the simulator's clock is monotone, so
// bins older than the trailing window are never recorded into (Record
// panics if one is — it would silently vanish from the rates otherwise).
type Window struct {
	ring  [windowBins]float64
	head  int64 // absolute index of the newest bin covered; -1 when empty
	total float64
}

// newWindow returns an empty window.
func newWindow() Window { return Window{head: -1} }

// BinWidth returns the width of each bin in seconds.
func (w *Window) BinWidth() float64 { return windowBin }

// Record adds amount at time t seconds.
func (w *Window) Record(t, amount float64) {
	if t < 0 {
		panic("telemetry: negative time")
	}
	bin := int64(t / windowBin)
	switch {
	case w.head < 0 || bin-w.head >= windowBins:
		// First record, or a gap longer than the whole window: every
		// retained bin is zero.
		w.ring = [windowBins]float64{}
		w.head = bin
	case bin > w.head:
		for w.head < bin {
			w.head++
			w.ring[w.head%windowBins] = 0
		}
	case bin <= w.head-windowBins:
		panic(fmt.Sprintf("telemetry: record at bin %d below trailing window ending at %d", bin, w.head))
	}
	w.ring[bin%windowBins] += amount
	w.total += amount
}

// Total returns the exact all-time sum, including amounts whose bins have
// rotated out of the window.
func (w *Window) Total() float64 { return w.total }

// WindowTotal returns the sum over the retained trailing bins only.
func (w *Window) WindowTotal() float64 {
	var sum float64
	first, n := w.bounds()
	for b := first; b < first+n; b++ {
		sum += w.ring[b%windowBins]
	}
	return sum
}

// Rates returns the trailing window as per-second rates, oldest first,
// along with the absolute index of the first returned bin (firstBin ×
// BinWidth seconds is its start time). Empty windows return (0, nil).
func (w *Window) Rates() (firstBin int64, rates []float64) {
	first, n := w.bounds()
	if n == 0 {
		return 0, nil
	}
	rates = make([]float64, n)
	for i := range rates {
		rates[i] = w.ring[(first+int64(i))%windowBins] / windowBin
	}
	return first, rates
}

// Merge folds other into w: totals add exactly, and each live bin of
// other that still falls inside the merged trailing window (which ends at
// the later of the two heads) adds into the corresponding bin of w. Bins
// of other that the merged window has already rotated past are dropped
// from the ring — exactly as if their amounts had been recorded into w at
// their original times — but survive in Total. The merged state is a pure
// function of the multiset of inputs, so Merge is associative and
// commutative up to float addition order — exactly so when amounts are
// integral (the collector records byte counts, which stay exact below
// 2^53); other is left unchanged.
func (w *Window) Merge(other *Window) {
	if other.head > w.head {
		// Advance w's coverage without touching its contents: live bins
		// that remain inside the new trailing range keep their slots (the
		// slot index depends only on the absolute bin), bins that fall out
		// must be zeroed exactly as Record's rotation would.
		first, n := w.bounds()
		newFirst := other.head - windowBins + 1
		for bin := first; bin < first+n && bin < newFirst; bin++ {
			w.ring[bin%windowBins] = 0
		}
		w.head = other.head
	}
	first, n := other.bounds()
	for bin := first; bin < first+n; bin++ {
		if bin > w.head-windowBins {
			w.ring[bin%windowBins] += other.ring[bin%windowBins]
		}
	}
	w.total += other.total
}

// bounds returns the absolute index of the oldest retained bin and how
// many bins are live.
func (w *Window) bounds() (first, n int64) {
	if w.head < 0 {
		return 0, 0
	}
	first = w.head - windowBins + 1
	if first < 0 {
		first = 0
	}
	return first, w.head - first + 1
}
