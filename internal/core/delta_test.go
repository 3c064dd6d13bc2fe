package core

import (
	"reflect"
	"testing"

	"gs3/internal/radio"
)

// setDistinct sets field i of the counter struct *p to base+i, so a
// copy that drops or swaps a field shows up as a wrong value.
func setDistinct(p any, base uint64) {
	v := reflect.ValueOf(p).Elem()
	for i := 0; i < v.NumField(); i++ {
		v.Field(i).SetUint(base + uint64(i))
	}
}

// checkScaled reports every field of the counter struct got that is not
// k·(base+i).
func checkScaled(t *testing.T, what string, got any, base, k uint64) {
	t.Helper()
	v := reflect.ValueOf(got)
	for i := 0; i < v.NumField(); i++ {
		if g, want := v.Field(i).Uint(), k*(base+uint64(i)); g != want {
			t.Errorf("%s: %s = %d, want %d", what, v.Type().Field(i).Name, g, want)
		}
	}
}

// TestCounterMirrorsCoverEveryField pins the hand-written copies of
// radio.Stats and Metrics to their declarations. A replayed sweep
// credits its recorded delta through packDelta, statsDelta,
// metricsDelta, Medium.AddStats (Stats.Add) and addMetrics; a counter
// added to either struct but not to those copies would be silently
// under-credited, so every field gets a distinct value and must survive
// the round trip.
func TestCounterMirrorsCoverEveryField(t *testing.T) {
	var d sweepDelta
	if n := reflect.TypeOf(radio.Stats{}).NumField(); n != len(d.stats) {
		t.Fatalf("radio.Stats has %d fields, sweepDelta.stats holds %d", n, len(d.stats))
	}
	if n := reflect.TypeOf(Metrics{}).NumField(); n != len(d.metrics) {
		t.Fatalf("Metrics has %d fields, sweepDelta.metrics holds %d", n, len(d.metrics))
	}

	const sBase, mBase = 1, 100
	var s radio.Stats
	var m Metrics
	setDistinct(&s, sBase)
	setDistinct(&m, mBase)

	d, ok := packDelta(s, m)
	if !ok {
		t.Fatal("packDelta overflowed on small counters")
	}
	checkScaled(t, "statsDelta(3)", d.statsDelta(3), sBase, 3)
	checkScaled(t, "metricsDelta(3)", d.metricsDelta(3), mBase, 3)

	med, err := radio.NewMedium(radio.Params{MaxRange: 100, DiffusionSpeed: 100})
	if err != nil {
		t.Fatal(err)
	}
	med.AddStats(s)
	med.AddStats(s)
	checkScaled(t, "AddStats twice", med.Stats(), sBase, 2)
	checkScaled(t, "Stats.Sub", med.Stats().Sub(s), sBase, 1)

	var nw Network
	nw.addMetrics(m)
	nw.addMetrics(m)
	checkScaled(t, "addMetrics twice", nw.metrics, mBase, 2)
	checkScaled(t, "Metrics.sub", nw.metrics.sub(m), mBase, 1)
}
