// Package apps provides synthetic application models standing in for the
// paper's 25 benchmarks (PARSEC, Minebench, Rodinia, plus jacobi, filebound
// and the swish++ web server). Each application is a parametric response
// surface mapping a platform configuration to a ground-truth performance
// (heartbeats/s) and power (Watts).
//
// The model is deliberately richer than any single parametric family the
// estimators assume, which is the property the paper's evaluation relies on:
// scaling peaks followed by sharp degradation (Kmeans), early plateaus
// (x264), memory-bandwidth walls sensitive to the number of memory
// controllers (streamcluster), I/O-bound insensitivity (filebound), and
// compute-bound frequency sensitivity (swaptions).
package apps

import (
	"fmt"
	"math"

	"leo/internal/platform"
)

// App is a synthetic application response surface. The zero value is not
// useful; construct instances via the Suite table or populate every field.
type App struct {
	Name  string
	Suite string // benchmark suite the application stands in for

	// Performance parameters. Work is split into an I/O fraction
	// (insensitive to configuration), a memory fraction (sensitive to
	// memory-controller bandwidth, insensitive to clock), and a compute
	// fraction (sensitive to clock). The non-I/O work parallelizes with an
	// Amdahl law whose effective parallelism saturates and then degrades
	// beyond PeakThreads.
	BaseRate     float64 // heartbeats/s of the serial app at base clock
	SerialFrac   float64 // Amdahl serial fraction of the non-I/O work, [0,1]
	PeakThreads  float64 // effective parallelism at which contention starts
	Contention   float64 // quadratic degradation strength beyond the peak
	HTBenefit    float64 // marginal value of a hyperthread vs a physical core, [0,1]
	MemIntensity float64 // fraction of non-I/O time bound on memory, [0,1]
	MemCtrlBoost float64 // fractional memory-bandwidth gain per extra controller
	IOFrac       float64 // fraction of total time in I/O, [0,1)

	// Power parameters. Dynamic power follows the classic f·V² ≈ f^FreqExp
	// scaling; stalled (memory- or I/O-bound) cycles draw less than active
	// ones through the activity factor.
	IdlePower   float64 // Watts drawn by the whole system when idle
	UncorePower float64 // Watts per active socket (caches, fabric)
	CorePower   float64 // Watts per busy physical core at base clock, full activity
	HTPower     float64 // extra Watts per busy hyperthread at base clock
	MemPower    float64 // Watts per memory controller under load
	FreqExp     float64 // dynamic-power exponent in normalized frequency

	// Phases optionally divides the application's run into workload phases
	// (§6.6). An empty slice means a single uniform phase.
	Phases []Phase
}

// Phase is a region of an application's execution whose work per heartbeat
// differs from the base model. WorkScale < 1 means each heartbeat needs less
// work, so the same configuration yields proportionally higher heartbeat
// rates (the paper's fluidanimate phase 2 requires 2/3 the resources).
type Phase struct {
	Name      string
	Frames    int     // length of the phase, in frames (heartbeats)
	WorkScale float64 // relative work per frame, > 0
}

// Validate checks the parameters for internal consistency.
func (a *App) Validate() error {
	switch {
	case a.Name == "":
		return fmt.Errorf("apps: missing name")
	case a.BaseRate <= 0:
		return fmt.Errorf("apps: %s: BaseRate must be positive", a.Name)
	case a.SerialFrac < 0 || a.SerialFrac > 1:
		return fmt.Errorf("apps: %s: SerialFrac %g outside [0,1]", a.Name, a.SerialFrac)
	case a.PeakThreads < 1:
		return fmt.Errorf("apps: %s: PeakThreads %g must be >= 1", a.Name, a.PeakThreads)
	case a.Contention < 0:
		return fmt.Errorf("apps: %s: Contention %g must be >= 0", a.Name, a.Contention)
	case a.HTBenefit < 0 || a.HTBenefit > 1:
		return fmt.Errorf("apps: %s: HTBenefit %g outside [0,1]", a.Name, a.HTBenefit)
	case a.MemIntensity < 0 || a.MemIntensity > 1:
		return fmt.Errorf("apps: %s: MemIntensity %g outside [0,1]", a.Name, a.MemIntensity)
	case a.MemCtrlBoost < 0:
		return fmt.Errorf("apps: %s: MemCtrlBoost %g must be >= 0", a.Name, a.MemCtrlBoost)
	case a.IOFrac < 0 || a.IOFrac >= 1:
		return fmt.Errorf("apps: %s: IOFrac %g outside [0,1)", a.Name, a.IOFrac)
	case a.IdlePower <= 0:
		return fmt.Errorf("apps: %s: IdlePower must be positive", a.Name)
	case a.FreqExp < 1:
		return fmt.Errorf("apps: %s: FreqExp %g must be >= 1", a.Name, a.FreqExp)
	}
	for i, p := range a.Phases {
		if p.Frames <= 0 || p.WorkScale <= 0 {
			return fmt.Errorf("apps: %s: phase %d invalid (%+v)", a.Name, i, p)
		}
	}
	return nil
}

// effectiveParallelism maps a thread count to the effective number of
// full-speed workers, accounting for hyperthread weakness and contention
// collapse past the application's scaling peak.
func (a *App) effectiveParallelism(threads int) float64 {
	phys := float64(threads)
	ht := 0.0
	if threads > platform.PhysicalCores {
		phys = float64(platform.PhysicalCores)
		ht = float64(threads - platform.PhysicalCores)
	}
	raw := phys + a.HTBenefit*ht
	// Contention grows with the nominal thread count (lock and cache-line
	// contenders), not the HT-discounted effective worker count.
	over := float64(threads) - a.PeakThreads
	if over <= 0 || a.Contention == 0 {
		return raw
	}
	// Quadratic contention: effective parallelism decreases beyond the peak,
	// producing the hump the paper stresses for Kmeans.
	return raw / (1 + a.Contention*over*over/a.PeakThreads)
}

// amdahl returns the serial-equivalent time multiplier of the non-I/O work
// at a given effective parallelism: SerialFrac + (1-SerialFrac)/eff.
func (a *App) amdahl(eff float64) float64 {
	if eff < 1 {
		eff = 1
	}
	return a.SerialFrac + (1-a.SerialFrac)/eff
}

// memBandwidth returns the relative memory bandwidth of a configuration with
// m memory controllers (1.0 for a single controller).
func (a *App) memBandwidth(m int) float64 {
	return 1 + a.MemCtrlBoost*float64(m-1)
}

// Performance returns the application's true heartbeat rate (heartbeats/s)
// in configuration c of space s, for the base (first or only) phase.
func (a *App) Performance(s platform.Space, c platform.Config) float64 {
	return a.PhasePerformance(s, c, 0)
}

// PhasePerformance returns the heartbeat rate in phase index ph (0-based).
// Applications without explicit phases have exactly one phase.
func (a *App) PhasePerformance(s platform.Space, c platform.Config, ph int) float64 {
	if err := s.CheckConfig(c); err != nil {
		panic(err)
	}
	scale := a.phaseWorkScale(ph)
	fNorm := s.Frequency(c.Speed) / platform.BaseFreqGHz
	eff := a.effectiveParallelism(c.Threads)
	parallel := a.amdahl(eff)
	compute := (1 - a.MemIntensity) * parallel / fNorm
	memory := a.MemIntensity * parallel / a.memBandwidth(c.MemCtrls)
	t := a.IOFrac + (1-a.IOFrac)*(compute+memory)
	return a.BaseRate / (t * scale)
}

// Power returns the application's true total system power (Watts) in
// configuration c of space s. Power does not depend on the phase: phases
// change work per heartbeat, not the machine's utilization profile.
func (a *App) Power(s platform.Space, c platform.Config) float64 {
	if err := s.CheckConfig(c); err != nil {
		panic(err)
	}
	return a.power(c, a.dynScale(s, c.Speed))
}

// dynScale returns (f/f_base)^FreqExp, the dynamic-power multiplier at
// speed setting sp.
func (a *App) dynScale(s platform.Space, sp int) float64 {
	return math.Pow(s.Frequency(sp)/platform.BaseFreqGHz, a.FreqExp)
}

// power is Power for a checked configuration c whose speed's dynamic-power
// multiplier is dyn.
func (a *App) power(c platform.Config, dyn float64) float64 {
	physBusy := float64(c.Threads)
	htBusy := 0.0
	if c.Threads > platform.PhysicalCores {
		physBusy = float64(platform.PhysicalCores)
		htBusy = float64(c.Threads - platform.PhysicalCores)
	}

	// Stalled cycles burn less power: memory- and I/O-bound time lowers the
	// activity factor.
	activity := 1 - 0.35*a.MemIntensity - 0.6*a.IOFrac

	// A second socket's uncore powers on when the allocation spills past one
	// socket's cores or uses the second memory controller.
	sockets := 1.0
	if c.Threads > platform.CoresPerSocket || c.MemCtrls > 1 {
		sockets = 2
	}

	p := a.IdlePower +
		sockets*a.UncorePower*dyn +
		a.CorePower*activity*physBusy*dyn +
		a.HTPower*activity*htBusy*dyn +
		a.MemPower*a.MemIntensity*float64(c.MemCtrls)
	return p
}

// phaseWorkScale returns the work multiplier for phase ph.
func (a *App) phaseWorkScale(ph int) float64 {
	if len(a.Phases) == 0 {
		if ph != 0 {
			panic(fmt.Sprintf("apps: %s has no phase %d", a.Name, ph))
		}
		return 1
	}
	if ph < 0 || ph >= len(a.Phases) {
		panic(fmt.Sprintf("apps: %s has no phase %d", a.Name, ph))
	}
	return a.Phases[ph].WorkScale
}

// NumPhases returns the number of workload phases (at least 1).
func (a *App) NumPhases() int {
	if len(a.Phases) == 0 {
		return 1
	}
	return len(a.Phases)
}

// PerfVector returns the ground-truth performance of every configuration in
// index order (the paper's y_i vector for performance).
func (a *App) PerfVector(s platform.Space) []float64 {
	out := make([]float64, s.N())
	for i := range out {
		out[i] = a.Performance(s, s.ConfigAt(i))
	}
	return out
}

// PowerVector returns the ground-truth power of every configuration in index
// order (the paper's y_i vector for power). It is Power at every
// configuration, with the dynamic-power multiplier computed once per speed.
func (a *App) PowerVector(s platform.Space) []float64 {
	dyn := make([]float64, s.Speeds)
	for sp := range dyn {
		dyn[sp] = a.dynScale(s, sp)
	}
	out := make([]float64, s.N())
	for i := range out {
		c := s.ConfigAt(i)
		out[i] = a.power(c, dyn[c.Speed])
	}
	return out
}

// PhasePerfVector is PerfVector for a specific phase.
func (a *App) PhasePerfVector(s platform.Space, ph int) []float64 {
	out := make([]float64, s.N())
	for i := range out {
		out[i] = a.PhasePerformance(s, s.ConfigAt(i), ph)
	}
	return out
}
