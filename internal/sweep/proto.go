// Package sweep shards a grid of scenario Specs across worker processes
// and merges the shards back into one report — the multi-process
// counterpart of scenario.RunScenarios.
//
// The protocol is deliberately small. The coordinator gob-encodes one
// ShardSpec (a slice of Specs plus their global indices) onto each
// worker's stdin; the worker runs the specs in order and streams one
// gob-encoded Frame per finished scenario back over stdout, then exits.
// Because every scenario's Result is a pure function of its Spec and the
// telemetry collectors merge associatively, the coordinator can place
// frames by global index and re-dispatch only the indices a crashed or
// timed-out worker never delivered: the merged output is byte-identical
// to a single-process run no matter how the work was sharded, shuffled,
// or retried.
package sweep

import (
	"encoding/gob"
	"fmt"
	"io"

	opera "github.com/opera-net/opera"
	"github.com/opera-net/opera/scenario"
)

// ShardSpec is the coordinator→worker work order: the specs one worker
// process runs, paired with their global indices into the sweep so the
// coordinator can place results without trusting arrival order.
type ShardSpec struct {
	// Indices[k] is the global sweep index of Specs[k].
	Indices []int
	Specs   []scenario.Spec
}

// Frame is one worker→coordinator message: a finished scenario's global
// index, its Result, and the telemetry collector's wire encoding (nil
// when the spec does not use sketch retention).
type Frame struct {
	Index     int
	Result    scenario.Result
	Collector []byte
}

// ServeShard is the worker side of the protocol: decode one ShardSpec
// from r, run each spec, and stream a Frame per result to w. It returns
// only on a malformed shard or a broken pipe; a healthy worker processes
// the whole shard and returns nil.
func ServeShard(r io.Reader, w io.Writer) error {
	var shard ShardSpec
	if err := gob.NewDecoder(r).Decode(&shard); err != nil {
		return fmt.Errorf("sweep: worker: decode shard: %w", err)
	}
	if len(shard.Indices) != len(shard.Specs) {
		return fmt.Errorf("sweep: worker: shard pairs %d indices with %d specs",
			len(shard.Indices), len(shard.Specs))
	}
	enc := gob.NewEncoder(w)
	for k, sp := range shard.Specs {
		res, blob := runSpec(sp)
		if err := enc.Encode(Frame{Index: shard.Indices[k], Result: res, Collector: blob}); err != nil {
			return fmt.Errorf("sweep: worker: send frame: %w", err)
		}
	}
	return nil
}

// runSpec resolves and runs one Spec, returning its Result and, under
// sketch retention, the collector's wire encoding. A spec that fails to
// resolve yields a Result carrying only the error — the same shape a
// failed cluster build produces — so bad cells surface in the report
// instead of killing the shard.
func runSpec(sp scenario.Spec) (scenario.Result, []byte) {
	sc, err := sp.Scenario()
	if err != nil {
		return failedResult(sp, err.Error()), nil
	}
	return withCollector(scenario.Collect(sc))
}

// withCollector pairs a finished run's Result with its telemetry
// collector's wire encoding (nil without sketch retention or a cluster).
func withCollector(cl *opera.Cluster, res scenario.Result) (scenario.Result, []byte) {
	if cl == nil {
		return res, nil
	}
	tel := cl.Metrics().Telemetry()
	if tel == nil {
		return res, nil
	}
	blob, err := tel.MarshalBinary()
	if err != nil {
		res.Err = fmt.Sprintf("sweep: encode collector: %v", err)
		return res, nil
	}
	return res, blob
}
