package heartbeat

import (
	"testing"
)

func TestReset(t *testing.T) {
	var m Monitor
	m.Heartbeat(0, 1)
	m.Heartbeat(1, 1)
	m.Reset()
	if _, ok := m.LastTime(); ok {
		t.Fatal("Reset did not clear state")
	}
	// Time may restart after reset: the clamp compares against beats since
	// the reset only.
	m.Heartbeat(0.5, 1)
	if last, ok := m.LastTime(); !ok || last != 0.5 {
		t.Fatalf("LastTime after reset = %g,%v want 0.5,true", last, ok)
	}
}

func TestNonPositiveCountPanics(t *testing.T) {
	var m Monitor
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.Heartbeat(0, 0)
}

func TestOutOfOrderClamped(t *testing.T) {
	var m Monitor
	m.Heartbeat(5, 1)
	m.Heartbeat(4, 1) // late delivery: clamped to t=5
	if last, _ := m.LastTime(); last != 5 {
		t.Fatalf("LastTime after a late batch = %g, want 5", last)
	}
	m.Heartbeat(6, 2)
	if last, _ := m.LastTime(); last != 6 {
		t.Fatalf("LastTime = %g, want 6", last)
	}
}

// TestEdgeBatches drives the monitor through the adversarial delivery
// patterns a faulty transport produces and asserts the newest time is the
// latest timestamp delivered: it never moves backwards.
func TestEdgeBatches(t *testing.T) {
	type beat struct {
		t float64
		n int64
	}
	cases := []struct {
		name  string
		beats []beat
		last  float64
	}{
		{name: "zero elapsed pair", beats: []beat{{3, 1}, {3, 1}}, last: 3},
		{name: "all beats at one instant", beats: []beat{{2, 4}, {2, 4}, {2, 4}}, last: 2},
		{name: "out of order then forward", beats: []beat{{10, 1}, {8, 1}, {12, 2}}, last: 12},
		{name: "strictly decreasing times", beats: []beat{{9, 1}, {7, 1}, {5, 1}}, last: 9},
		{name: "zero elapsed after reorder", beats: []beat{{4, 1}, {4, 1}, {1, 1}}, last: 4},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var m Monitor
			for _, b := range tc.beats {
				m.Heartbeat(b.t, b.n)
			}
			if last, ok := m.LastTime(); !ok || last != tc.last {
				t.Fatalf("LastTime = %g,%v want %g,true", last, ok, tc.last)
			}
		})
	}
}

func TestLastTime(t *testing.T) {
	var m Monitor
	if _, ok := m.LastTime(); ok {
		t.Fatal("empty monitor reports a last beat")
	}
	m.Heartbeat(3, 1)
	if last, ok := m.LastTime(); !ok || last != 3 {
		t.Fatalf("LastTime = %g,%v want 3,true", last, ok)
	}
	m.Reset()
	if _, ok := m.LastTime(); ok {
		t.Fatal("reset monitor reports a last beat")
	}
}
