package obs

import (
	"sync/atomic"
	"testing"
)

// The registry's contract is "cheap enough to leave on": these benches
// are the evidence (go test -bench . ./internal/obs).

func BenchmarkCounterAdd(b *testing.B) {
	c := NewRegistry().Counter("bench")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Add(1)
	}
}

func BenchmarkCounterAddParallel(b *testing.B) {
	c := NewRegistry().Counter("bench")
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Add(1)
		}
	})
}

func BenchmarkCounterAddShardParallel(b *testing.B) {
	c := NewRegistry().Counter("bench")
	b.ReportAllocs()
	var worker atomic.Int64
	b.RunParallel(func(pb *testing.PB) {
		w := int(worker.Add(1))
		for pb.Next() {
			c.AddShard(w, 1)
		}
	})
}

func BenchmarkCounterAddNil(b *testing.B) {
	var c *Counter
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Add(1)
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewRegistry().Histogram("bench", []float64{1, 2, 5, 10, 20, 50, 100, 200, 500, 1000})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i % 1024))
	}
}

func BenchmarkSpan(b *testing.B) {
	r := NewRecorder()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Span("bench", CatStage, 0).End()
	}
}

func BenchmarkSpanNil(b *testing.B) {
	var r *Recorder
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Span("bench", CatStage, 0).End()
	}
}
