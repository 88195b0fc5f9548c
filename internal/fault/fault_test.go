package fault

import (
	"math"
	"testing"
)

func TestNilPlanIsInert(t *testing.T) {
	var p *Plan
	if p.Active() {
		t.Fatal("nil plan reports active")
	}
	if got := p.Actuate(3); got != ActOK {
		t.Fatalf("nil plan Actuate = %v", got)
	}
	if got := p.Power(42); got != 42 {
		t.Fatalf("nil plan Power = %g", got)
	}
	if got := p.Perf(7); got != 7 {
		t.Fatalf("nil plan Perf = %g", got)
	}
	if got := p.Heartbeats(5); got != 5 {
		t.Fatalf("nil plan Heartbeats = %g", got)
	}
	if p.Total() != 0 || p.Counts() != nil {
		t.Fatal("nil plan reports injected faults")
	}
}

func TestZeroRatePlanIsInert(t *testing.T) {
	p, err := New(1, Uniform(0))
	if err != nil {
		t.Fatal(err)
	}
	if p.Active() {
		t.Fatal("zero-rate plan reports active")
	}
	for i := 0; i < 100; i++ {
		if got := p.Power(10); got != 10 {
			t.Fatalf("zero-rate plan altered power reading: %g", got)
		}
		if got := p.Actuate(i); got != ActOK {
			t.Fatalf("zero-rate plan faulted actuation: %v", got)
		}
	}
	if p.Total() != 0 {
		t.Fatalf("zero-rate plan injected %d faults", p.Total())
	}
}

func TestRateValidation(t *testing.T) {
	if _, err := New(1, Spec{Rates: map[Kind]float64{PowerDropout: 1.5}}); err == nil {
		t.Fatal("rate 1.5 accepted")
	}
	if _, err := New(1, Spec{Rates: map[Kind]float64{PowerDropout: -0.1}}); err == nil {
		t.Fatal("negative rate accepted")
	}
	if _, err := New(1, Spec{Rates: map[Kind]float64{Kind(99): 0.5}}); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

func TestDeterministicSchedule(t *testing.T) {
	run := func() ([]float64, []Actuation) {
		p, err := New(42, Uniform(0.3))
		if err != nil {
			t.Fatal(err)
		}
		var powers []float64
		var acts []Actuation
		for i := 0; i < 200; i++ {
			powers = append(powers, p.Power(float64(i+1)))
			acts = append(acts, p.Actuate(i%8))
		}
		return powers, acts
	}
	p1, a1 := run()
	p2, a2 := run()
	for i := range p1 {
		same := p1[i] == p2[i] || (math.IsNaN(p1[i]) && math.IsNaN(p2[i]))
		if !same || a1[i] != a2[i] {
			t.Fatalf("schedule diverged at %d: (%g,%v) vs (%g,%v)", i, p1[i], a1[i], p2[i], a2[i])
		}
	}
}

func TestPowerFaultShapes(t *testing.T) {
	p, err := New(7, Spec{Rates: map[Kind]float64{PowerDropout: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Power(50); !math.IsNaN(got) {
		t.Fatalf("certain dropout delivered %g, want NaN", got)
	}
	if p.Counts()[PowerDropout] != 1 {
		t.Fatalf("dropout not counted: %v", p.Counts())
	}

	stuck, err := New(7, Spec{Rates: map[Kind]float64{PowerStuck: 1}})
	if err != nil {
		t.Fatal(err)
	}
	// No previous reading yet: first reading passes through and seeds the
	// stuck value.
	if got := stuck.Power(50); got != 50 {
		t.Fatalf("first stuck reading = %g, want pass-through 50", got)
	}
	if got := stuck.Power(60); got != 50 {
		t.Fatalf("stuck meter delivered %g, want repeated 50", got)
	}

	spiked, err := New(7, Spec{Rates: map[Kind]float64{SensorSpike: 1}, SpikeFactor: 3})
	if err != nil {
		t.Fatal(err)
	}
	if got := spiked.Power(10); got != 30 {
		t.Fatalf("spiked reading = %g, want 30", got)
	}
}

func TestHeartbeatFaultShapes(t *testing.T) {
	loss, _ := New(3, Spec{Rates: map[Kind]float64{HeartbeatLoss: 1}})
	if got := loss.Heartbeats(9); got != 0 {
		t.Fatalf("lost batch delivered %g beats", got)
	}
	if got := loss.Perf(4); got != 0 {
		t.Fatalf("lost batch read rate %g", got)
	}
	dup, _ := New(3, Spec{Rates: map[Kind]float64{HeartbeatDup: 1}})
	if got := dup.Heartbeats(9); got != 18 {
		t.Fatalf("duplicated batch delivered %g beats, want 18", got)
	}
}

func TestBlacklistAlwaysFails(t *testing.T) {
	p, err := New(11, Spec{Blacklist: []int{2, 5}})
	if err != nil {
		t.Fatal(err)
	}
	if !p.Active() {
		t.Fatal("blacklist-only plan reports inactive")
	}
	for i := 0; i < 10; i++ {
		if got := p.Actuate(2); got != ActFail {
			t.Fatalf("blacklisted actuation = %v", got)
		}
		if got := p.Actuate(3); got != ActOK {
			t.Fatalf("clean actuation = %v", got)
		}
	}
	if p.Counts()[ConfigBlacklist] != 10 {
		t.Fatalf("blacklist hits not counted: %v", p.Counts())
	}
	if p.Actuate(5) != ActFail || p.Actuate(4) != ActOK {
		t.Fatal("blacklist membership wrong")
	}
}

func TestRatesAreApproximatelyHonored(t *testing.T) {
	p, err := New(99, Spec{Rates: map[Kind]float64{ActuationFail: 0.25}})
	if err != nil {
		t.Fatal(err)
	}
	fails := 0
	const n = 10000
	for i := 0; i < n; i++ {
		if p.Actuate(0) == ActFail {
			fails++
		}
	}
	frac := float64(fails) / n
	if frac < 0.2 || frac > 0.3 {
		t.Fatalf("ActuationFail rate 0.25 realized as %.3f", frac)
	}
}

func TestSummaryStable(t *testing.T) {
	p, _ := New(1, Uniform(0))
	if got := p.Summary(); got != "no faults injected" {
		t.Fatalf("empty summary = %q", got)
	}
	q, _ := New(1, Spec{Rates: map[Kind]float64{HeartbeatLoss: 1, PowerDropout: 1}})
	q.Power(5)
	q.Heartbeats(3)
	if got := q.Summary(); got != "power-dropout=1 heartbeat-loss=1" {
		t.Fatalf("summary = %q", got)
	}
}
