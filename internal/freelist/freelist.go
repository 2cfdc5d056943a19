// Package freelist provides the two reusable containers behind the
// simulator's hot paths: Pool, a LIFO free list of *T (the event engine's
// Event pool, NDP's sendFlow/recvFlow pools, RotorLB's sessions), and
// Queue, a FIFO ring that reuses its buffer (the port class queues,
// RotorLB's segment queues, NDP's pull credits and retransmit queues, the
// retired flow records).
//
// The simulator's engines are single-goroutine by design, so Pool is a
// plain LIFO slice rather than a sync.Pool: no locking, and — unlike
// sync.Pool, which the garbage collector clears — the pool survives GC
// cycles, so steady-state reuse never silently degrades back into
// allocation. Callers own the reset discipline: Pool neither zeroes
// objects on Put nor initializes them on Get, because each pool's reset
// cost differs (the event engine zeroes whole structs, the NDP flow pools
// keep bitmap capacity and clear only the words in use).
//
// Neither type is safe for concurrent use. Each must stay confined to
// the goroutine of the engine it serves, exactly like the engine itself.
package freelist

// Pool is a LIFO free list of *T. The zero value is an empty pool, ready
// for use.
type Pool[T any] struct {
	items []*T
}

// Get removes and returns the most recently Put object, or nil when the
// pool is empty — the caller allocates on nil, which confines allocation
// to startup and new high-water marks of concurrently live objects.
func (p *Pool[T]) Get() *T {
	n := len(p.items)
	if n == 0 {
		return nil
	}
	x := p.items[n-1]
	p.items[n-1] = nil
	p.items = p.items[:n-1]
	return x
}

// Put returns an object to the pool. The caller must have dropped every
// other reference to it and cleared any pointer fields that should not
// keep their referents alive.
func (p *Pool[T]) Put(x *T) {
	p.items = append(p.items, x)
}

// Len reports how many objects are pooled (free, not in use).
func (p *Pool[T]) Len() int { return len(p.items) }
