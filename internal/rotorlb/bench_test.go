package rotorlb

import (
	"fmt"
	"testing"

	"github.com/opera-net/opera/internal/eventsim"
	"github.com/opera-net/opera/internal/sim"
)

// BenchmarkSegQueueRequeue is the NACK path on one queue: a requeue at the
// head, then the carve that sends it again. ns/op must not depend on how
// many segments wait behind, and B/op is 0.
func BenchmarkSegQueueRequeue(b *testing.B) {
	for _, depth := range []int{16, 1 << 10, 8 << 10} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			f := &sim.Flow{ID: 1}
			var q segQueue
			for i := 0; i < depth; i++ {
				q.push(segment{f: f, host: int32(i & 3), bytes: 1500})
			}
			nack := segment{f: f, host: 1, bytes: 1500}
			ready := func(h int32) bool { return h == 1 }
			requeue := func() {
				q.pushFront(nack)
				if _, ok := q.carveReady(1500, ready); !ok {
					b.Fatal("nothing carved")
				}
			}
			requeue() // a power-of-two depth fills the ring: grow it now
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				requeue()
			}
		})
	}
}

// BenchmarkOpenSessionsIdle is one slice with no bulk traffic: every rack
// opens a session per circuit, each polls through its window and closes.
// It is what the low-latency workloads pay RotorLB per slice.
func BenchmarkOpenSessionsIdle(b *testing.B) {
	for _, c := range []struct{ racks, hosts, switches int }{{16, 4, 4}, {108, 6, 6}} {
		b.Run(fmt.Sprintf("racks=%d", c.racks), func(b *testing.B) {
			bed := newLBBed(b, eventsim.New(), c.racks, c.hosts, c.switches)
			bed.net.Start()
			slice := bed.net.SliceDuration()
			bed.eng.RunUntil(eventsim.Time(bed.net.Topology().SlicesPerCycle()) * slice)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				bed.eng.RunUntil(bed.eng.Now() + slice)
			}
		})
	}
}
