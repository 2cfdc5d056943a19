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
// recvFlow objects parked between flows. Under streaming retention these
// grow to the active-flow high-water mark and then hold steady — the
// observability plane charts them to confirm a soak really is
// allocation-flat. Both are zero under RetainAll (nothing is released).
type PoolGauges struct {
	SendFree int
	RecvFree int
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
