package obs

import (
	"sync"
	"sync/atomic"
	"time"

	"github.com/opera-net/opera/internal/telemetry"
	"github.com/opera-net/opera/scenario"
)

// SweepStatus is the coordinator-side counterpart of Snapshot: the live
// view of a sharded sweep, served over the same Source/HTTP layer.
type SweepStatus struct {
	Seq      uint64    `json:"seq"`
	WallTime time.Time `json:"wall_time"`

	Specs   int `json:"specs"`
	Workers int `json:"workers"`
	Shards  int `json:"shards"`
	Rounds  int `json:"rounds"`

	ShardsDispatched int `json:"shards_dispatched"`
	ShardsCompleted  int `json:"shards_completed"`
	ShardsFailed     int `json:"shards_failed"`
	ShardsRetried    int `json:"shards_retried"`

	// ResultsDone counts delivered scenarios; ResultsErr is the subset
	// whose Result carries an error (bad cell, not a crashed worker).
	ResultsDone int `json:"results_done"`
	ResultsErr  int `json:"results_err"`

	// Done flips when the sweep returns; Failed lists never-delivered
	// spec indices.
	Done   bool  `json:"done"`
	Failed []int `json:"failed,omitempty"`

	// Quantiles summarizes the pooled telemetry of every collector blob
	// delivered so far (PR 6 wire codec, merged in arrival order — fine
	// for display, unlike the report path which merges in spec order).
	Quantiles []ClassQuantiles `json:"quantiles,omitempty"`
}

// SweepTracker is a sweep.ProgressSink (satisfied structurally — obs does
// not import sweep) that folds progress callbacks into a published
// SweepStatus. Safe for concurrent use; readers get immutable copies via
// the same latest-wins pointer discipline as Mailbox.
type SweepTracker struct {
	mu     sync.Mutex
	seq    uint64
	st     SweepStatus
	pooled *telemetry.Collector

	cur atomic.Pointer[SweepStatus]
}

// NewSweepTracker returns a tracker ready to be passed as a sweep
// progress sink and served via NewMux/Serve.
func NewSweepTracker() *SweepTracker { return &SweepTracker{} }

// SweepStarted implements the sink.
func (t *SweepTracker) SweepStarted(specs, workers, shards int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.st.Specs, t.st.Workers, t.st.Shards = specs, workers, shards
	t.publishLocked()
}

// ShardDispatched implements the sink.
func (t *SweepTracker) ShardDispatched(round, shard int, indices []int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.st.ShardsDispatched++
	if round > 0 {
		t.st.ShardsRetried++
	}
	if round+1 > t.st.Rounds {
		t.st.Rounds = round + 1
	}
	t.publishLocked()
}

// ShardDone implements the sink.
func (t *SweepTracker) ShardDone(round, shard int, indices []int, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err != nil {
		t.st.ShardsFailed++
	} else {
		t.st.ShardsCompleted++
	}
	t.publishLocked()
}

// ResultDelivered implements the sink, folding the scenario's collector
// blob into the pooled quantile summary.
func (t *SweepTracker) ResultDelivered(index int, res scenario.Result, collector []byte) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.st.ResultsDone++
	if res.Err != "" {
		t.st.ResultsErr++
	}
	if len(collector) > 0 {
		var col telemetry.Collector
		if err := col.UnmarshalBinary(collector); err == nil {
			if t.pooled == nil {
				t.pooled = &col
			} else {
				_ = t.pooled.Merge(&col) //operalint:allow injecterr -- mixed sketch configs cannot pool; keep what we have
			}
		}
	}
	t.publishLocked()
}

// SweepDone implements the sink.
func (t *SweepTracker) SweepDone(rounds int, failed []int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if rounds > t.st.Rounds {
		t.st.Rounds = rounds
	}
	t.st.Done = true
	t.st.Failed = append([]int(nil), failed...)
	t.publishLocked()
}

// publishLocked stamps and stores an immutable copy; caller holds t.mu.
func (t *SweepTracker) publishLocked() {
	t.seq++
	cp := t.st
	cp.Seq = t.seq
	//operalint:allow determrand -- wall clock is display-only status metadata
	cp.WallTime = time.Now()
	cp.Failed = append([]int(nil), t.st.Failed...)
	if t.pooled != nil {
		cp.Quantiles = []ClassQuantiles{{"all", t.pooled.Merged().Summary()}}
	}
	t.cur.Store(&cp)
}

// StatusSnapshot implements Source.
func (t *SweepTracker) StatusSnapshot() (any, uint64) {
	s := t.cur.Load()
	if s == nil {
		return nil, 0
	}
	return s, s.Seq
}
