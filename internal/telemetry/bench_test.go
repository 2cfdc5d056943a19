package telemetry

import (
	"math"
	"math/rand"
	"testing"
)

// BenchmarkSketchAdd measures the per-observation cost of the quantile
// sketch — the incremental work FlowDone pays under sketch retention. The
// values are pre-drawn so the benchmark isolates Add from the RNG.
func BenchmarkSketchAdd(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, 1<<14)
	for i := range xs {
		xs[i] = math.Exp(rng.NormFloat64()*2 + 5)
	}
	s := NewSketch(0.01)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Add(xs[i&(1<<14-1)])
	}
}

// BenchmarkWindowRecord measures the trailing-window ring update — the
// per-delivery cost of the windowed throughput/tax series.
func BenchmarkWindowRecord(b *testing.B) {
	w := newWindow()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Record(float64(i)*1e-6, 1500)
	}
}

// benchCollector builds a representative shard collector: two classes,
// two tags, ~10k completions — the state one worker ships per scenario.
func benchCollector(seed int64) *Collector {
	c := NewCollector(Opts{}, 2)
	rng := rand.New(rand.NewSource(seed))
	t := 0.0
	for i := 0; i < 10_000; i++ {
		t += rng.Float64() * 1e-5
		tag := ""
		if i%2 == 0 {
			tag = "websearch"
		}
		c.FlowAdded(tag)
		bytes := int64(rng.Intn(100_000) + 64)
		c.FlowDone(i%2, tag, math.Exp(rng.NormFloat64()*2+5), bytes)
		c.RecordDelivered(t, float64(bytes))
		c.RecordTax(t, float64(bytes), float64(bytes)*1.3)
	}
	return c
}

// BenchmarkCollectorEncode measures the wire codec's serialization cost —
// what a worker pays per finished scenario before streaming the blob.
func BenchmarkCollectorEncode(b *testing.B) {
	c := benchCollector(1)
	data, _ := c.MarshalBinary()
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.MarshalBinary(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCollectorDecode measures the coordinator-side deserialization
// cost per received shard blob.
func BenchmarkCollectorDecode(b *testing.B) {
	data, _ := benchCollector(1).MarshalBinary()
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var c Collector
		if err := c.UnmarshalBinary(data); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMergeShards measures merging 8 decoded shard collectors into a
// pooled cell — the coordinator's per-cell aggregation under -replicas.
func BenchmarkMergeShards(b *testing.B) {
	shards := make([]*Collector, 8)
	for i := range shards {
		data, _ := benchCollector(int64(i + 1)).MarshalBinary()
		var c Collector
		if err := c.UnmarshalBinary(data); err != nil {
			b.Fatal(err)
		}
		shards[i] = &c
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pooled := NewCollector(Opts{}, 2)
		for _, s := range shards {
			if err := pooled.Merge(s); err != nil {
				b.Fatal(err)
			}
		}
	}
}
