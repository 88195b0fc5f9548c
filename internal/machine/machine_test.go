package machine

import (
	"math"
	"math/rand"
	"testing"

	"leo/internal/apps"
	"leo/internal/platform"
)

func newTestMachine(t *testing.T, noise float64) *Machine {
	t.Helper()
	var rng *rand.Rand
	if noise > 0 {
		rng = rand.New(rand.NewSource(99))
	}
	m, err := New(platform.Paper(), apps.MustByName("kmeans"), noise, rng)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewValidation(t *testing.T) {
	if _, err := New(platform.Space{}, apps.MustByName("kmeans"), 0, nil); err == nil {
		t.Fatal("invalid space must error")
	}
	bad := *apps.MustByName("kmeans")
	bad.BaseRate = 0
	if _, err := New(platform.Paper(), &bad, 0, nil); err == nil {
		t.Fatal("invalid app must error")
	}
	if _, err := New(platform.Paper(), apps.MustByName("kmeans"), -1, nil); err == nil {
		t.Fatal("negative noise must error")
	}
	if _, err := New(platform.Paper(), apps.MustByName("kmeans"), 0.1, nil); err == nil {
		t.Fatal("noise without rng must error")
	}
}

func TestApplyAndConfig(t *testing.T) {
	m := newTestMachine(t, 0)
	c := platform.Config{Threads: 8, Speed: 10, MemCtrls: 2}
	if err := m.Apply(c); err != nil {
		t.Fatal(err)
	}
	if m.Config() != c {
		t.Fatalf("Config = %v", m.Config())
	}
	if err := m.Apply(platform.Config{Threads: 99, Speed: 0, MemCtrls: 1}); err == nil {
		t.Fatal("invalid config must error")
	}
}

func TestApplyIndexRoundTrip(t *testing.T) {
	m := newTestMachine(t, 0)
	if err := m.ApplyIndex(500); err != nil {
		t.Fatal(err)
	}
	if got := m.Space().Index(m.Config()); got != 500 {
		t.Fatalf("ApplyIndex(500) landed at %d", got)
	}
}

func TestRunAccounting(t *testing.T) {
	m := newTestMachine(t, 0)
	c := platform.Config{Threads: 8, Speed: 15, MemCtrls: 2}
	if err := m.Apply(c); err != nil {
		t.Fatal(err)
	}
	app := m.App()
	wantRate := app.Performance(m.Space(), c)
	wantPower := app.Power(m.Space(), c)
	s := m.Run(10)
	if math.Abs(s.PerfRate-wantRate) > 1e-12 {
		t.Fatalf("noise-free PerfRate = %g, want %g", s.PerfRate, wantRate)
	}
	if math.Abs(s.Power-wantPower) > 1e-12 {
		t.Fatalf("noise-free Power = %g, want %g", s.Power, wantPower)
	}
	if math.Abs(s.Heartbeats-wantRate*10) > 1e-9 {
		t.Fatalf("Heartbeats = %g", s.Heartbeats)
	}
	if math.Abs(s.Energy-wantPower*10) > 1e-9 {
		t.Fatalf("Energy = %g", s.Energy)
	}
	if m.Elapsed() != 10 || math.Abs(m.Energy()-s.Energy) > 1e-12 || math.Abs(m.Work()-s.Heartbeats) > 1e-12 {
		t.Fatalf("machine totals: t=%g E=%g W=%g", m.Elapsed(), m.Energy(), m.Work())
	}
}

func TestRunAccumulates(t *testing.T) {
	m := newTestMachine(t, 0)
	m.Run(5)
	m.Run(7)
	if m.Elapsed() != 12 {
		t.Fatalf("Elapsed = %g", m.Elapsed())
	}
}

func TestIdleEnergy(t *testing.T) {
	m := newTestMachine(t, 0)
	e := m.Idle(20)
	want := m.App().IdlePower * 20
	if math.Abs(e-want) > 1e-9 || math.Abs(m.Energy()-want) > 1e-9 {
		t.Fatalf("Idle energy %g, want %g", e, want)
	}
	if m.Elapsed() != 20 {
		t.Fatalf("Idle must advance time, Elapsed = %g", m.Elapsed())
	}
	if m.Work() != 0 {
		t.Fatal("Idle must not complete work")
	}
}

func TestMeasurementNoise(t *testing.T) {
	m := newTestMachine(t, 0.05)
	c := platform.Config{Threads: 8, Speed: 15, MemCtrls: 2}
	truth := m.App().Performance(m.Space(), c)
	n := 2000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := m.MeasurePerf(c)
		sum += v
		sumSq += v * v
	}
	mean := sum / float64(n)
	sd := math.Sqrt(sumSq/float64(n) - mean*mean)
	if math.Abs(mean-truth)/truth > 0.01 {
		t.Fatalf("noisy measurements biased: mean %g vs truth %g", mean, truth)
	}
	if rel := sd / truth; rel < 0.03 || rel > 0.07 {
		t.Fatalf("noise level %g, want ~0.05", rel)
	}
}

func TestMeasurePerfDoesNotAdvanceTime(t *testing.T) {
	m := newTestMachine(t, 0)
	m.MeasurePerf(platform.Config{Threads: 1, Speed: 0, MemCtrls: 1})
	m.MeasurePower(platform.Config{Threads: 1, Speed: 0, MemCtrls: 1})
	if m.Elapsed() != 0 || m.Energy() != 0 {
		t.Fatal("Measure* must not advance state")
	}
}

func TestPhaseSwitching(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m, err := New(platform.Paper(), apps.MustByName("fluidanimate"), 0, rng)
	if err != nil {
		t.Fatal(err)
	}
	c := platform.Config{Threads: 16, Speed: 8, MemCtrls: 2}
	if err := m.Apply(c); err != nil {
		t.Fatal(err)
	}
	r0 := m.Run(1).PerfRate
	m.SetPhase(1)
	if m.Phase() != 1 {
		t.Fatalf("Phase = %d", m.Phase())
	}
	r1 := m.Run(1).PerfRate
	if math.Abs(r1/r0-1.5) > 1e-9 {
		t.Fatalf("phase 2 rate ratio = %g, want 1.5", r1/r0)
	}
}

func TestSetPhasePanicsOutOfRange(t *testing.T) {
	m := newTestMachine(t, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.SetPhase(1) // kmeans has a single phase
}

func TestReset(t *testing.T) {
	m := newTestMachine(t, 0)
	m.Run(5)
	m.Reset()
	if m.Elapsed() != 0 || m.Energy() != 0 || m.Work() != 0 || !math.IsInf(m.BeatAge(), 1) {
		t.Fatal("Reset incomplete")
	}
}

func TestRunPanics(t *testing.T) {
	m := newTestMachine(t, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.Run(0)
}

func TestIdlePanicsNegative(t *testing.T) {
	m := newTestMachine(t, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.Idle(-1)
}
