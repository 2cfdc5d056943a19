package ndp

import "github.com/opera-net/opera/internal/sim"

// Fabric bundles a cluster's per-host NDP endpoints behind the single
// flow-admission surface of sim.Transport: a started flow is handed to the
// endpoint of its source host.
type Fabric struct {
	eps []*Endpoint
}

var _ sim.Transport = (*Fabric)(nil)

// StartFlow implements sim.Transport.
func (fb *Fabric) StartFlow(f *sim.Flow) { fb.eps[f.SrcHost].StartFlow(f) }

// PoolGauges reports the fabric-wide flow-state free lists: sendFlow and
// recvFlow objects parked between flows. They grow to the active-flow
// high-water mark and then hold steady — the observability plane charts
// them to confirm a soak really is allocation-flat. A sender is released
// once fully ACKed and a receiver at completion, under either retention
// policy. The tags are the /status names.
type PoolGauges struct {
	SendFree int `json:"ndp_send_free"`
	RecvFree int `json:"ndp_recv_free"`
}

// PoolStats reads the shared free-list sizes. Like every fabric method it
// is only safe from the engine goroutine.
func (fb *Fabric) PoolStats() PoolGauges {
	if len(fb.eps) == 0 {
		return PoolGauges{}
	}
	p := fb.eps[0].pools
	return PoolGauges{SendFree: p.send.Len(), RecvFree: p.recv.Len()}
}
