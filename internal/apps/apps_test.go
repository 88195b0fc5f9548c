package apps

import (
	"math"
	"testing"

	"leo/internal/platform"
)

func perfAtThreads(a *App, s platform.Space, threads int) float64 {
	return a.Performance(s, platform.Config{Threads: threads, Speed: s.Speeds - 1, MemCtrls: s.MemCtrls})
}

func TestSuiteSizeAndValidity(t *testing.T) {
	suite := Suite()
	if len(suite) != SuiteSize {
		t.Fatalf("suite has %d apps, want %d", len(suite), SuiteSize)
	}
	names := make(map[string]bool)
	for _, a := range suite {
		if err := a.Validate(); err != nil {
			t.Errorf("%s: %v", a.Name, err)
		}
		if names[a.Name] {
			t.Errorf("duplicate app name %q", a.Name)
		}
		names[a.Name] = true
	}
}

func TestSuiteReturnsFreshCopies(t *testing.T) {
	a := Suite()[0]
	a.BaseRate = -1
	if Suite()[0].BaseRate == -1 {
		t.Fatal("Suite must return fresh copies")
	}
}

func TestByName(t *testing.T) {
	a, err := ByName("kmeans")
	if err != nil {
		t.Fatal(err)
	}
	if a.Name != "kmeans" || a.Suite != "minebench" {
		t.Fatalf("ByName(kmeans) = %+v", a)
	}
	if _, err := ByName("nonexistent"); err == nil {
		t.Fatal("unknown name must error")
	}
}

func TestMustByNamePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MustByName("nope")
}

func TestNames(t *testing.T) {
	names := Names()
	if len(names) != SuiteSize {
		t.Fatalf("Names returned %d entries", len(names))
	}
	if names[0] != "blackscholes" {
		t.Fatalf("first app = %q", names[0])
	}
}

// TestKmeansPeaksAtEight reproduces the paper's motivating observation (§2):
// Kmeans scales well to 8 cores and degrades sharply beyond.
func TestKmeansPeaksAtEight(t *testing.T) {
	a := MustByName("kmeans")
	s := platform.CoresOnly()
	best, bestTh := 0.0, 0
	for th := 1; th <= 32; th++ {
		p := perfAtThreads(a, s, th)
		if p > best {
			best, bestTh = p, th
		}
	}
	if bestTh < 7 || bestTh > 9 {
		t.Fatalf("kmeans peaks at %d threads, want ~8", bestTh)
	}
	// Sharp degradation: performance at 32 threads well below the peak.
	if p32 := perfAtThreads(a, s, 32); p32 > 0.6*best {
		t.Fatalf("kmeans at 32 threads = %g, peak %g: degradation not sharp", p32, best)
	}
}

// TestSwishPeaksNearSixteen checks the paper's description of swish (§6.3).
func TestSwishPeaksNearSixteen(t *testing.T) {
	a := MustByName("swish")
	s := platform.CoresOnly()
	best, bestTh := 0.0, 0
	for th := 1; th <= 32; th++ {
		if p := perfAtThreads(a, s, th); p > best {
			best, bestTh = p, th
		}
	}
	if bestTh < 13 || bestTh > 18 {
		t.Fatalf("swish peaks at %d threads, want ~16", bestTh)
	}
}

// TestX264FlatPastSixteen checks that x264 performance is essentially
// constant after 16 threads (§6.3).
func TestX264FlatPastSixteen(t *testing.T) {
	a := MustByName("x264")
	s := platform.CoresOnly()
	p16 := perfAtThreads(a, s, 16)
	for th := 17; th <= 32; th++ {
		p := perfAtThreads(a, s, th)
		if math.Abs(p-p16)/p16 > 0.12 {
			t.Fatalf("x264 at %d threads = %g, at 16 = %g: not flat", th, p, p16)
		}
	}
}

func TestSwaptionsScalesNearLinearly(t *testing.T) {
	a := MustByName("swaptions")
	s := platform.CoresOnly()
	p1 := perfAtThreads(a, s, 1)
	p16 := perfAtThreads(a, s, 16)
	if p16/p1 < 12 {
		t.Fatalf("swaptions speedup at 16 threads = %g, want near-linear (>12)", p16/p1)
	}
	// Hyperthreads keep helping.
	if perfAtThreads(a, s, 32) <= p16 {
		t.Fatal("swaptions should still gain from hyperthreads")
	}
}

func TestFileboundInsensitive(t *testing.T) {
	a := MustByName("filebound")
	s := platform.Paper()
	perf := a.PerfVector(s)
	min, max := perf[0], perf[0]
	for _, v := range perf {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	if max/min > 2.5 {
		t.Fatalf("filebound dynamic range %g, should be small (I/O bound)", max/min)
	}
}

// TestStreamclusterMemCtrlSensitivity: the second memory controller must
// matter a lot for the bandwidth-bound app and little for the compute-bound
// one.
func TestStreamclusterMemCtrlSensitivity(t *testing.T) {
	s := platform.Paper()
	sc := MustByName("streamcluster")
	one := sc.Performance(s, platform.Config{Threads: 14, Speed: 14, MemCtrls: 1})
	two := sc.Performance(s, platform.Config{Threads: 14, Speed: 14, MemCtrls: 2})
	if two/one < 1.3 {
		t.Fatalf("streamcluster MC2/MC1 = %g, want > 1.3", two/one)
	}
	sw := MustByName("swaptions")
	one = sw.Performance(s, platform.Config{Threads: 14, Speed: 14, MemCtrls: 1})
	two = sw.Performance(s, platform.Config{Threads: 14, Speed: 14, MemCtrls: 2})
	if two/one > 1.05 {
		t.Fatalf("swaptions MC2/MC1 = %g, should be near 1", two/one)
	}
}

// TestFrequencySensitivity: compute-bound apps scale with clock; memory-bound
// apps barely move.
func TestFrequencySensitivity(t *testing.T) {
	s := platform.Paper()
	ratioAt := func(a *App) float64 {
		lo := a.Performance(s, platform.Config{Threads: 1, Speed: 0, MemCtrls: 1})
		hi := a.Performance(s, platform.Config{Threads: 1, Speed: 14, MemCtrls: 1})
		return hi / lo
	}
	fullScaling := platform.BaseFreqGHz / platform.MinFreqGHz // ≈ 2.42
	if r := ratioAt(MustByName("swaptions")); r < 0.9*fullScaling {
		t.Fatalf("swaptions frequency scaling %g, want near %g", r, fullScaling)
	}
	if r := ratioAt(MustByName("jacobi")); r > 0.6*fullScaling {
		t.Fatalf("jacobi frequency scaling %g, should be well below %g", r, fullScaling)
	}
}

func TestPowerMonotoneInThreadsAndSpeed(t *testing.T) {
	s := platform.Paper()
	for _, a := range Suite() {
		prev := 0.0
		for th := 1; th <= 32; th++ {
			p := a.Power(s, platform.Config{Threads: th, Speed: 8, MemCtrls: 2})
			if p < prev {
				t.Fatalf("%s: power not monotone in threads at %d (%g < %g)", a.Name, th, p, prev)
			}
			prev = p
		}
		prev = 0.0
		for sp := 0; sp < 16; sp++ {
			p := a.Power(s, platform.Config{Threads: 16, Speed: sp, MemCtrls: 2})
			if p < prev {
				t.Fatalf("%s: power not monotone in speed at %d", a.Name, sp)
			}
			prev = p
		}
	}
}

func TestPowerAboveIdle(t *testing.T) {
	s := platform.Paper()
	for _, a := range Suite() {
		for _, c := range []platform.Config{
			{Threads: 1, Speed: 0, MemCtrls: 1},
			{Threads: 32, Speed: 15, MemCtrls: 2},
		} {
			if p := a.Power(s, c); p <= a.IdlePower {
				t.Fatalf("%s: power %g at %v not above idle %g", a.Name, p, c, a.IdlePower)
			}
		}
	}
}

func TestPowerRangeRealistic(t *testing.T) {
	// Full-blast power should be in server territory but bounded.
	s := platform.Paper()
	for _, a := range Suite() {
		p := a.Power(s, s.MaxConfig())
		if p < 100 || p > 450 {
			t.Fatalf("%s: max power %g W outside plausible server range", a.Name, p)
		}
	}
}

func TestPerformancePositiveEverywhere(t *testing.T) {
	s := platform.Small()
	for _, a := range Suite() {
		for _, v := range a.PerfVector(s) {
			if v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("%s: invalid performance %g", a.Name, v)
			}
		}
	}
}

func TestVectorsMatchPointQueries(t *testing.T) {
	s := platform.Small()
	a := MustByName("bodytrack")
	perf := a.PerfVector(s)
	power := a.PowerVector(s)
	if len(perf) != s.N() || len(power) != s.N() {
		t.Fatalf("vector lengths %d, %d; want %d", len(perf), len(power), s.N())
	}
	for i := 0; i < s.N(); i += 7 {
		c := s.ConfigAt(i)
		if perf[i] != a.Performance(s, c) {
			t.Fatalf("perf[%d] mismatch", i)
		}
		if power[i] != a.Power(s, c) {
			t.Fatalf("power[%d] mismatch", i)
		}
	}
}

// TestPowerVectorMatchesPower: PowerVector computes each speed's
// dynamic-power multiplier once, and must still return Power's bits at
// every configuration of every space.
func TestPowerVectorMatchesPower(t *testing.T) {
	for _, s := range []platform.Space{platform.Paper(), platform.Small(), platform.CoresOnly()} {
		for _, a := range Suite() {
			power := a.PowerVector(s)
			for i, v := range power {
				if want := a.Power(s, s.ConfigAt(i)); math.Float64bits(v) != math.Float64bits(want) {
					t.Fatalf("%s on %+v: PowerVector[%d] = %v, Power = %v", a.Name, s, i, v, want)
				}
			}
		}
	}
}

func TestFluidanimatePhases(t *testing.T) {
	a := MustByName("fluidanimate")
	if a.NumPhases() != 2 {
		t.Fatalf("fluidanimate has %d phases, want 2", a.NumPhases())
	}
	s := platform.Paper()
	c := platform.Config{Threads: 16, Speed: 10, MemCtrls: 2}
	p0 := a.PhasePerformance(s, c, 0)
	p1 := a.PhasePerformance(s, c, 1)
	// Phase 2 needs 2/3 the work per frame, so its rate is 1.5× higher.
	if math.Abs(p1/p0-1.5) > 1e-9 {
		t.Fatalf("phase rate ratio = %g, want 1.5", p1/p0)
	}
	// Power is phase-independent.
	if a.Power(s, c) != a.Power(s, c) {
		t.Fatal("power must be deterministic")
	}
	vec := a.PhasePerfVector(s, 1)
	if vec[s.Index(c)] != p1 {
		t.Fatal("PhasePerfVector mismatch")
	}
}

func TestSinglePhaseApps(t *testing.T) {
	a := MustByName("kmeans")
	if a.NumPhases() != 1 {
		t.Fatalf("kmeans phases = %d", a.NumPhases())
	}
	s := platform.CoresOnly()
	c := platform.Config{Threads: 4, Speed: 0, MemCtrls: 1}
	if a.PhasePerformance(s, c, 0) != a.Performance(s, c) {
		t.Fatal("phase 0 must equal base performance")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for phase 1 of single-phase app")
		}
	}()
	a.PhasePerformance(s, c, 1)
}

func TestPhaseIndexPanics(t *testing.T) {
	a := MustByName("fluidanimate")
	s := platform.Paper()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range phase")
		}
	}()
	a.PhasePerformance(s, platform.Config{Threads: 1, Speed: 0, MemCtrls: 1}, 2)
}

func TestPerformancePanicsOnBadConfig(t *testing.T) {
	a := MustByName("kmeans")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	a.Performance(platform.CoresOnly(), platform.Config{Threads: 40, Speed: 0, MemCtrls: 1})
}

func TestValidateRejectsBadParameters(t *testing.T) {
	base := *MustByName("kmeans")
	cases := []struct {
		name   string
		mutate func(*App)
	}{
		{"empty name", func(a *App) { a.Name = "" }},
		{"zero base rate", func(a *App) { a.BaseRate = 0 }},
		{"serial frac > 1", func(a *App) { a.SerialFrac = 1.5 }},
		{"peak < 1", func(a *App) { a.PeakThreads = 0.5 }},
		{"negative contention", func(a *App) { a.Contention = -1 }},
		{"HT benefit > 1", func(a *App) { a.HTBenefit = 2 }},
		{"mem intensity > 1", func(a *App) { a.MemIntensity = 1.2 }},
		{"negative MC boost", func(a *App) { a.MemCtrlBoost = -0.1 }},
		{"io frac = 1", func(a *App) { a.IOFrac = 1 }},
		{"zero idle power", func(a *App) { a.IdlePower = 0 }},
		{"freq exp < 1", func(a *App) { a.FreqExp = 0.5 }},
		{"bad phase", func(a *App) { a.Phases = []Phase{{Name: "p", Frames: 0, WorkScale: 1}} }},
	}
	for _, tc := range cases {
		a := base // copy
		tc.mutate(&a)
		if err := a.Validate(); err == nil {
			t.Errorf("%s: expected validation error", tc.name)
		}
	}
}

// TestSuiteDiversity: the population must contain both strong and weak
// scalers, and both frequency-sensitive and -insensitive apps, or the
// hierarchical prior has nothing to learn.
func TestSuiteDiversity(t *testing.T) {
	s := platform.CoresOnly()
	strong, weak := 0, 0
	for _, a := range Suite() {
		sp := perfAtThreads(a, s, 16) / perfAtThreads(a, s, 1)
		if sp > 8 {
			strong++
		}
		if sp < 4 {
			weak++
		}
	}
	if strong < 5 {
		t.Fatalf("only %d strong scalers in suite", strong)
	}
	if weak < 3 {
		t.Fatalf("only %d weak scalers in suite", weak)
	}
}
