package ckpt

import (
	"testing"
)

// benchResult approximates one checkpointed experiment result: a few
// metric scalars plus a table-sized block of strings.
type benchResult struct {
	ID      string
	Metrics map[string]float64
	Rows    [][]string
}

func benchPayload() *benchResult {
	p := &benchResult{ID: "fig9", Metrics: map[string]float64{}}
	for i := 0; i < 16; i++ {
		p.Metrics[Key("metric", string(rune('a'+i)))[:12]] = float64(i) * 1.5
	}
	for i := 0; i < 64; i++ {
		p.Rows = append(p.Rows, []string{"segment", "0.125", "17", "3600"})
	}
	return p
}

func BenchmarkSave(b *testing.B) {
	b.ReportAllocs()
	s, err := NewStore(b.TempDir(), nil)
	if err != nil {
		b.Fatal(err)
	}
	p := benchPayload()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Save(Key("bench", "save"), p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLoadHit(b *testing.B) {
	b.ReportAllocs()
	s, err := NewStore(b.TempDir(), nil)
	if err != nil {
		b.Fatal(err)
	}
	key := Key("bench", "load")
	if _, err := s.Save(key, benchPayload()); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var p benchResult
		ok, err := load(s, key, &p)
		if err != nil || !ok {
			b.Fatalf("load: ok=%v err=%v", ok, err)
		}
	}
}

func BenchmarkKey(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Key("core.Result/v1", "fig9", "seed=42 machines=100 sim=604800 wl=604800 maxtasks=0 sample=300")
	}
}
