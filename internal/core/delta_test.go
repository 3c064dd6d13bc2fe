package core

import (
	"reflect"
	"testing"
)

// TestMetricsCountersListEveryField pins Metrics.counters, the one list
// that sub and addMetrics loop over, to the declaration: it must point
// at every field exactly once, so a counter added to Metrics but not to
// the list fails here rather than going uncredited by replayed sweeps.
// With a distinct value in every field, crediting 3m and subtracting m
// must leave 2m. Replay credit itself (k × the recorded delta) is
// checked by TestQuiescentSweepReplaysAccounting.
func TestMetricsCountersListEveryField(t *testing.T) {
	var m Metrics
	list := m.counters()
	v := reflect.ValueOf(&m).Elem()
	if len(list) != v.NumField() {
		t.Fatalf("Metrics has %d fields, its counter list %d", v.NumField(), len(list))
	}
	for i := 0; i < v.NumField(); i++ {
		n := 0
		for _, p := range list {
			if reflect.ValueOf(p).Pointer() == v.Field(i).UnsafeAddr() {
				n++
			}
		}
		if n != 1 {
			t.Errorf("Metrics.%s is in the counter list %d times, want 1", v.Type().Field(i).Name, n)
		}
	}

	for i, p := range list {
		*p = uint64(i + 1)
	}
	var nw Network
	nw.addMetrics(m, 3)
	if got, want := nw.metrics.sub(m), times(m, 2); got != want {
		t.Errorf("addMetrics(m, 3) then sub(m) = %+v, want %+v", got, want)
	}
}
