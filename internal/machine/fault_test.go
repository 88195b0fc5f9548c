package machine

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"leo/internal/apps"
	"leo/internal/fault"
	"leo/internal/platform"
)

// TestNoPlanBitIdentical runs two machines with identical seeds — one bare,
// one with a zero-rate fault plan installed — and requires every observable
// to match bit for bit: the fault layer must be a no-op when disabled.
func TestNoPlanBitIdentical(t *testing.T) {
	build := func(withPlan bool) *Machine {
		m, err := New(platform.Small(), apps.MustByName("kmeans"), 0.02, rand.New(rand.NewSource(5)))
		if err != nil {
			t.Fatal(err)
		}
		if withPlan {
			p, err := fault.New(1, fault.Uniform(0))
			if err != nil {
				t.Fatal(err)
			}
			m.InstallFaults(p)
		}
		return m
	}
	a, b := build(false), build(true)
	for i := 0; i < 50; i++ {
		if err := a.ApplyIndex(i % a.Space().N()); err != nil {
			t.Fatal(err)
		}
		if err := b.ApplyIndex(i % b.Space().N()); err != nil {
			t.Fatal(err)
		}
		sa, sb := a.Run(0.7), b.Run(0.7)
		if sa != sb {
			t.Fatalf("step %d diverged: %+v vs %+v", i, sa, sb)
		}
		if pa, pb := a.MeasurePower(a.Config()), b.MeasurePower(b.Config()); pa != pb {
			t.Fatalf("step %d MeasurePower diverged: %g vs %g", i, pa, pb)
		}
	}
	if a.Energy() != b.Energy() || a.Work() != b.Work() || a.Elapsed() != b.Elapsed() {
		t.Fatal("accounting diverged under zero-rate plan")
	}
}

func TestActuationFailSurfacesErrActuation(t *testing.T) {
	m := newTestMachine(t, 0)
	p, err := fault.New(3, fault.Spec{Rates: map[fault.Kind]float64{fault.ActuationFail: 1}})
	if err != nil {
		t.Fatal(err)
	}
	m.InstallFaults(p)
	err = m.ApplyIndex(7)
	if !errors.Is(err, ErrActuation) {
		t.Fatalf("Apply error = %v, want ErrActuation", err)
	}
	// An invalid configuration is a hard error, not an actuation fault.
	if err := m.ApplyIndex(-1); errors.Is(err, ErrActuation) {
		t.Fatal("out-of-range index reported as transient actuation failure")
	}
}

func TestActuationDropLeavesConfig(t *testing.T) {
	m := newTestMachine(t, 0)
	if err := m.ApplyIndex(0); err != nil {
		t.Fatal(err)
	}
	before := m.Config()
	p, err := fault.New(3, fault.Spec{Rates: map[fault.Kind]float64{fault.ActuationDrop: 1}})
	if err != nil {
		t.Fatal(err)
	}
	m.InstallFaults(p)
	if err := m.ApplyIndex(9); err != nil {
		t.Fatalf("dropped actuation must report success, got %v", err)
	}
	if m.Config() != before {
		t.Fatal("dropped actuation landed anyway")
	}
}

func TestBlacklistedConfigAlwaysFails(t *testing.T) {
	m := newTestMachine(t, 0)
	p, err := fault.New(3, fault.Spec{Blacklist: []int{4}})
	if err != nil {
		t.Fatal(err)
	}
	m.InstallFaults(p)
	for i := 0; i < 5; i++ {
		if err := m.ApplyIndex(4); !errors.Is(err, ErrActuation) {
			t.Fatalf("blacklisted apply error = %v, want ErrActuation", err)
		}
	}
	if err := m.ApplyIndex(5); err != nil {
		t.Fatalf("clean config failed: %v", err)
	}
}

func TestSensorFaultsLeaveTruthIntact(t *testing.T) {
	m := newTestMachine(t, 0)
	p, err := fault.New(17, fault.Spec{Rates: map[fault.Kind]float64{
		fault.PowerDropout:  0.5,
		fault.HeartbeatLoss: 0.5,
		fault.SensorSpike:   0.3,
	}})
	if err != nil {
		t.Fatal(err)
	}
	m.InstallFaults(p)
	var trueBeats float64
	for i := 0; i < 200; i++ {
		s := m.Run(1)
		trueBeats += s.Heartbeats // observed, possibly lossy
		if math.IsNaN(s.Energy) || s.Energy <= 0 {
			t.Fatalf("true energy corrupted: %g", s.Energy)
		}
	}
	if math.IsNaN(m.Energy()) || m.Energy() <= 0 {
		t.Fatalf("machine energy corrupted: %g", m.Energy())
	}
	if m.Work() <= trueBeats {
		t.Fatalf("lossy observed beats %g should undercount true work %g", trueBeats, m.Work())
	}
	if p.Total() == 0 {
		t.Fatal("no faults injected at 50% rates over 200 windows")
	}
}

func TestBeatAge(t *testing.T) {
	m := newTestMachine(t, 0)
	if !math.IsInf(m.BeatAge(), 1) {
		t.Fatalf("BeatAge before any beat = %g, want +Inf", m.BeatAge())
	}
	m.Run(2) // delivers a batch at t=2
	if age := m.BeatAge(); age != 0 {
		t.Fatalf("BeatAge right after a batch = %g, want 0", age)
	}
	m.Idle(3)
	if age := m.BeatAge(); age != 3 {
		t.Fatalf("BeatAge after 3 s idle = %g, want 3", age)
	}
	// Under total heartbeat loss the age keeps growing while running.
	p, err := fault.New(5, fault.Spec{Rates: map[fault.Kind]float64{fault.HeartbeatLoss: 1}})
	if err != nil {
		t.Fatal(err)
	}
	m.InstallFaults(p)
	m.Run(4)
	if age := m.BeatAge(); age != 7 {
		t.Fatalf("BeatAge under total loss = %g, want 7", age)
	}
}
