package trace

import (
	"strings"
	"testing"

	"gs3/internal/geom"
	"gs3/internal/radio"
)

func TestKindString(t *testing.T) {
	if KindHeadShift.String() != "head_shift" || KindJoin.String() != "join" {
		t.Error("kind names wrong")
	}
	if Kind(0).String() != "invalid" {
		t.Error("zero kind should be invalid")
	}
}

func TestRecordAndEvents(t *testing.T) {
	l := NewLog(10)
	for i := 0; i < 3; i++ {
		l.Record(Event{Time: float64(i), Kind: KindJoin, Node: radio.NodeID(i)})
	}
	evs := l.Events()
	if len(evs) != 3 || l.Len() != 3 {
		t.Fatalf("events = %d", len(evs))
	}
	for i, e := range evs {
		if e.Time != float64(i) {
			t.Errorf("order broken at %d", i)
		}
	}
	if l.Dropped() != 0 {
		t.Errorf("dropped = %d", l.Dropped())
	}
}

func TestRingEviction(t *testing.T) {
	l := NewLog(3)
	for i := 0; i < 7; i++ {
		l.Record(Event{Time: float64(i), Kind: KindDeath})
	}
	evs := l.Events()
	if len(evs) != 3 {
		t.Fatalf("retained = %d", len(evs))
	}
	if evs[0].Time != 4 || evs[2].Time != 6 {
		t.Errorf("wrong window: %v..%v", evs[0].Time, evs[2].Time)
	}
	if l.Dropped() != 4 {
		t.Errorf("dropped = %d", l.Dropped())
	}
}

func TestCounts(t *testing.T) {
	l := NewLog(10)
	l.Record(Event{Kind: KindJoin})
	l.Record(Event{Kind: KindDeath})
	l.Record(Event{Kind: KindJoin})
	c := l.Counts()
	if c[KindJoin] != 2 || c[KindDeath] != 1 {
		t.Errorf("counts = %v", c)
	}
}

func TestEventString(t *testing.T) {
	e := Event{Time: 1.5, Kind: KindHeadShift, Node: 3, Other: 9, Pos: geom.Point{X: 1, Y: 2}}
	s := e.String()
	for _, want := range []string{"head_shift", "node=3", "other=9", "t=1.500"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q: %s", want, s)
		}
	}
	solo := Event{Kind: KindDeath, Node: 4, Other: radio.None}
	if strings.Contains(solo.String(), "other=") {
		t.Error("solo event printed other")
	}
}

func TestDump(t *testing.T) {
	l := NewLog(2)
	l.Record(Event{Kind: KindJoin, Other: radio.None})
	l.Record(Event{Kind: KindDeath, Other: radio.None})
	l.Record(Event{Kind: KindJoin, Other: radio.None})
	d := l.Dump()
	if !strings.Contains(d, "dropped") {
		t.Errorf("dump missing drop note:\n%s", d)
	}
	if strings.Count(d, "\n") != 3 {
		t.Errorf("dump lines = %d", strings.Count(d, "\n"))
	}
}

func TestNewLogPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewLog(0) did not panic")
		}
	}()
	NewLog(0)
}
