package scenario_test

import (
	"testing"

	"github.com/opera-net/opera/scenario"
)

// The eventsim engine recycles Event objects on a free list. A mixed Opera
// scenario — tags and a fault-and-recovery schedule — churns that pool
// through millions of recycle/reuse cycles (every packet serialization,
// propagation, pull pace, RTO re-arm and slice tick). Running the identical
// scenario twice must produce byte-identical Results: any pool-state leak
// into scheduling order (a stale cancelled flag, a corrupted tie-break seq)
// would show up as diverging FCTs or delivered series. Equal-ns event
// ties are the sensitive part — see the fig08 canary — and the second run
// starts from a fresh engine while the first has already churned its pool,
// so both cold and churned pools must agree. Engine-level recycle-after-cancel and
// tie-order-after-churn tests live in internal/eventsim.
func TestPooledEngineDeterminism(t *testing.T) {
	sc := hookSweep()[0] // tagged mixed workload + faults on Opera
	first := scenario.Run(sc)
	if first.Err != "" {
		t.Fatal(first.Err)
	}
	second := scenario.Run(sc)
	if !first.Equal(second) {
		t.Fatalf("identical scenario diverged across pooled-engine runs\n first: %+v\n second: %+v",
			first, second)
	}
	if !first.Completed {
		t.Fatalf("scenario incomplete: %d/%d flows", first.FlowsDone, first.FlowsTotal)
	}
}
