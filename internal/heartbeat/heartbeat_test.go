package heartbeat

import (
	"math"
	"testing"
)

func TestRateSteady(t *testing.T) {
	m := NewMonitor(10)
	for i := 0; i <= 5; i++ {
		m.Heartbeat(float64(i), 2) // 2 beats per second
	}
	if r := m.Rate(); math.Abs(r-2) > 1e-12 {
		t.Fatalf("Rate = %g, want 2", r)
	}
	if m.Total() != 12 {
		t.Fatalf("Total = %d", m.Total())
	}
}

func TestRateBeforeTwoBeats(t *testing.T) {
	m := NewMonitor(5)
	if m.Rate() != 0 {
		t.Fatal("empty monitor rate should be 0")
	}
	m.Heartbeat(1, 1)
	if m.Rate() != 0 {
		t.Fatal("single-beat rate should be 0")
	}
}

func TestWindowSlides(t *testing.T) {
	m := NewMonitor(3)
	// Slow beats early, fast beats late; windowed rate must reflect the
	// recent fast period only.
	m.Heartbeat(0, 1)
	m.Heartbeat(10, 1) // 0.1 beats/s era
	m.Heartbeat(10.5, 1)
	m.Heartbeat(11, 1)
	m.Heartbeat(11.5, 1) // 2 beats/s era
	if m.Window() != 3 {
		t.Fatalf("window = %d, want 3", m.Window())
	}
	if r := m.Rate(); math.Abs(r-2) > 1e-9 {
		t.Fatalf("windowed rate = %g, want 2", r)
	}
}

func TestDefaultWindow(t *testing.T) {
	m := NewMonitor(0)
	for i := 0; i < DefaultWindow+10; i++ {
		m.Heartbeat(float64(i), 1)
	}
	if m.Window() != DefaultWindow {
		t.Fatalf("window = %d, want %d", m.Window(), DefaultWindow)
	}
}

func TestLifetimeRate(t *testing.T) {
	m := NewMonitor(100)
	m.Heartbeat(0, 1)
	for i := 1; i <= 10; i++ {
		m.Heartbeat(float64(i), 3)
	}
	if r := m.LifetimeRate(); math.Abs(r-3) > 1e-12 {
		t.Fatalf("LifetimeRate = %g, want 3", r)
	}
	empty := NewMonitor(5)
	if empty.LifetimeRate() != 0 {
		t.Fatal("empty lifetime rate should be 0")
	}
}

// TestLifetimeRateAfterWindowSlides is the regression test for the exact
// lifetime rate: the first batch (which only marks the start instant) must
// stay excluded even after the sliding window has dropped its record. Before
// the monitor stored the true first-batch count, the oldest *retained* beat
// was subtracted instead, inflating the rate once the window overflowed.
func TestLifetimeRateAfterWindowSlides(t *testing.T) {
	m := NewMonitor(3)
	// First batch is large (7 beats at t=0); everything after it is a steady
	// 2 beats/s. With the window holding only the last 3 of 11 batches, the
	// old approximation would have subtracted a count of 2 instead of 7.
	m.Heartbeat(0, 7)
	for i := 1; i <= 10; i++ {
		m.Heartbeat(float64(i), 2)
	}
	if m.Window() != 3 {
		t.Fatalf("window = %d, want 3 (test must overflow the window)", m.Window())
	}
	// Exact: (total − first batch) / span = (7 + 10·2 − 7) / 10 = 2.
	if r := m.LifetimeRate(); math.Abs(r-2) > 1e-12 {
		t.Fatalf("LifetimeRate after window slide = %g, want exactly 2", r)
	}
	// Reset must clear the remembered first batch too.
	m.Reset()
	m.Heartbeat(0, 100)
	m.Heartbeat(1, 4)
	m.Heartbeat(2, 4)
	if r := m.LifetimeRate(); math.Abs(r-4) > 1e-12 {
		t.Fatalf("LifetimeRate after Reset = %g, want 4", r)
	}
}

func TestBatchCounts(t *testing.T) {
	m := NewMonitor(10)
	m.Heartbeat(0, 5)
	m.Heartbeat(2, 10)
	if r := m.Rate(); math.Abs(r-5) > 1e-12 {
		t.Fatalf("batch rate = %g, want 5", r)
	}
}

func TestReset(t *testing.T) {
	m := NewMonitor(10)
	m.Heartbeat(0, 1)
	m.Heartbeat(1, 1)
	m.Reset()
	if m.Total() != 0 || m.Rate() != 0 || m.Window() != 0 {
		t.Fatal("Reset did not clear state")
	}
	// Time may restart after reset without panicking.
	m.Heartbeat(0.5, 1)
	m.Heartbeat(1.0, 1)
	if m.Rate() == 0 {
		t.Fatal("monitor unusable after reset")
	}
}

func TestZeroDurationWindow(t *testing.T) {
	m := NewMonitor(10)
	m.Heartbeat(1, 1)
	m.Heartbeat(1, 1)
	if r := m.Rate(); r != 0 {
		t.Fatalf("zero-duration window rate = %g, want 0 (no rate information)", r)
	}
}

func TestNonPositiveCountPanics(t *testing.T) {
	m := NewMonitor(5)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.Heartbeat(0, 0)
}

func TestOutOfOrderClamped(t *testing.T) {
	m := NewMonitor(5)
	m.Heartbeat(5, 1)
	m.Heartbeat(4, 1) // late delivery: clamped to t=5, still counted
	if m.Total() != 2 {
		t.Fatalf("Total = %d, want 2", m.Total())
	}
	if m.Reordered() != 1 {
		t.Fatalf("Reordered = %d, want 1", m.Reordered())
	}
	m.Heartbeat(6, 2)
	if r := m.Rate(); r < 0 || math.IsInf(r, 0) || math.IsNaN(r) {
		t.Fatalf("rate after reorder = %g, want finite non-negative", r)
	}
}

// TestEdgeBatches drives the monitor through the adversarial delivery
// patterns a faulty transport produces and asserts every windowed rate stays
// finite and non-negative.
func TestEdgeBatches(t *testing.T) {
	type beat struct {
		t float64
		n int64
	}
	cases := []struct {
		name      string
		beats     []beat
		wantRate  float64 // -1 ⇒ only assert finite and non-negative
		reordered int64
	}{
		{
			name:  "zero elapsed pair",
			beats: []beat{{3, 1}, {3, 1}},
		},
		{
			name:  "all beats at one instant",
			beats: []beat{{2, 4}, {2, 4}, {2, 4}},
		},
		{
			name:      "out of order then forward",
			beats:     []beat{{10, 1}, {8, 1}, {12, 2}},
			wantRate:  1.5, // 3 beats after the window start over [10,12]
			reordered: 1,
		},
		{
			name:      "strictly decreasing times",
			beats:     []beat{{9, 1}, {7, 1}, {5, 1}},
			reordered: 2,
		},
		{
			name:      "zero elapsed after reorder",
			beats:     []beat{{4, 1}, {4, 1}, {1, 1}},
			reordered: 1,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := NewMonitor(10)
			for _, b := range tc.beats {
				m.Heartbeat(b.t, b.n)
			}
			r := m.Rate()
			if r < 0 || math.IsInf(r, 0) || math.IsNaN(r) {
				t.Fatalf("rate = %g, want finite non-negative", r)
			}
			if tc.wantRate > 0 && math.Abs(r-tc.wantRate) > 1e-12 {
				t.Fatalf("rate = %g, want %g", r, tc.wantRate)
			}
			if lr := m.LifetimeRate(); lr < 0 || math.IsInf(lr, 0) || math.IsNaN(lr) {
				t.Fatalf("lifetime rate = %g, want finite non-negative", lr)
			}
			if m.Reordered() != tc.reordered {
				t.Fatalf("Reordered = %d, want %d", m.Reordered(), tc.reordered)
			}
		})
	}
}

func TestLastTime(t *testing.T) {
	m := NewMonitor(5)
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
