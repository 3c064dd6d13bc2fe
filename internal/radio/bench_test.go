package radio

import (
	"math"
	"testing"

	"gs3/internal/field"
	"gs3/internal/geom"
	"gs3/internal/rng"
)

// benchMedium builds a 40×40 grid of nodes with 25-unit spacing, so a
// 100-radius query sees ~50 nodes across a few buckets — the same
// density regime as the protocol's search-region queries.
func benchMedium(b *testing.B) *Medium {
	b.Helper()
	m, err := NewMedium(Params{MaxRange: 100, DiffusionSpeed: 100})
	if err != nil {
		b.Fatal(err)
	}
	id := NodeID(0)
	for x := 0; x < 40; x++ {
		for y := 0; y < 40; y++ {
			m.Place(id, geom.Point{X: float64(x) * 25, Y: float64(y) * 25})
			id++
		}
	}
	return m
}

// BenchmarkWithinRange measures the spatial query hot path. The
// "append" case is the steady-state protocol path and must report
// 0 allocs/op (TestWithinRangeAppendZeroAlloc enforces it).
func BenchmarkWithinRange(b *testing.B) {
	center := geom.Point{X: 500, Y: 500}
	b.Run("append", func(b *testing.B) {
		m := benchMedium(b)
		var buf []NodeID
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			buf = m.WithinRangeAppend(buf[:0], center, 100, None)
			if len(buf) == 0 {
				b.Fatal("empty result")
			}
		}
	})
}

// BenchmarkAudience measures the kernel at configure's shape: the
// audience of a HEAD_ORG broadcast on the default deployment (R = 100,
// Rt = 25), a triangular field of spacing 0.9·Rt with 0.15 jitter, whose
// medium has SR-sized cells and whose audiences reach SR+Rt: ~427
// receivers from ~10 cells. The senders are spread over the field's
// interior, so every audience is whole.
func BenchmarkAudience(b *testing.B) {
	const rt, size = 25, 1500
	sr := math.Sqrt(3)*100 + 2*rt
	d, err := field.Grid(size, 0.9*rt, 0.15, rng.New(1))
	if err != nil {
		b.Fatal(err)
	}
	m, err := NewMedium(Params{MaxRange: sr + rt, DiffusionSpeed: 100, CellSize: sr})
	if err != nil {
		b.Fatal(err)
	}
	var senders []NodeID
	for i, p := range d.Positions {
		m.Place(NodeID(i), p)
		if i%97 == 0 && p.Dist(geom.Point{}) < size-sr-rt {
			senders = append(senders, NodeID(i))
		}
	}
	var buf []NodeID
	receivers := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = m.Audience(buf[:0], senders[i%len(senders)], sr+rt)
		receivers += len(buf)
	}
	b.ReportMetric(float64(receivers)/float64(b.N), "receivers/op")
}

// BenchmarkBroadcast measures the zero-allocation broadcast path: the
// audience query into a reused buffer, then the delivery into the
// per-Medium receiver buffer.
func BenchmarkBroadcast(b *testing.B) {
	m := benchMedium(b)
	var audience []NodeID
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		audience = m.Audience(audience[:0], 820, 100)
		if ids := m.Broadcast(820, audience); len(ids) == 0 {
			b.Fatal("no receivers")
		}
	}
}

// TestWithinRangeAppendZeroAlloc pins the acceptance bar of the append
// API: once the destination buffer has warmed up to the result size,
// queries allocate nothing.
func TestWithinRangeAppendZeroAlloc(t *testing.T) {
	m, err := NewMedium(Params{MaxRange: 100, DiffusionSpeed: 100})
	if err != nil {
		t.Fatal(err)
	}
	id := NodeID(0)
	for x := 0; x < 20; x++ {
		for y := 0; y < 20; y++ {
			m.Place(id, geom.Point{X: float64(x) * 25, Y: float64(y) * 25})
			id++
		}
	}
	center := geom.Point{X: 250, Y: 250}
	var buf []NodeID
	buf = m.WithinRangeAppend(buf, center, 100, None) // warm the buffer
	allocs := testing.AllocsPerRun(100, func() {
		buf = m.WithinRangeAppend(buf[:0], center, 100, None)
	})
	if allocs != 0 {
		t.Errorf("WithinRangeAppend steady state: %v allocs/op, want 0", allocs)
	}
	allocs = testing.AllocsPerRun(100, func() {
		buf = m.Audience(buf[:0], 0, 100)
		if ids := m.Broadcast(0, buf); len(ids) == 0 {
			t.Fatal("no receivers")
		}
	})
	if allocs != 0 {
		t.Errorf("Broadcast steady state: %v allocs/op, want 0", allocs)
	}
}
