// Package machine is an executable simulator of the paper's test platform.
// It gives the runtime the same interface a real machine would: apply a
// configuration (the paper uses affinity masks, cpufrequtils and numactl),
// run the application for a while, and read back heartbeats and power
// samples. Time is simulated, so experiments that took the authors days
// (exhaustive search on semphy took 5+ days, §6.7) complete instantly while
// exercising identical control logic.
package machine

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"leo/internal/apps"
	"leo/internal/fault"
	"leo/internal/heartbeat"
	"leo/internal/platform"
)

// ErrActuation marks a configuration change that failed transiently under an
// installed fault plan (the simulated analogue of cpufrequtils/numactl
// exiting non-zero). Callers may retry; errors.Is distinguishes it from
// invalid-configuration errors, which retrying cannot fix.
var ErrActuation = errors.New("machine: actuation failed")

// Machine simulates one application running on the configurable platform.
type Machine struct {
	space platform.Space
	app   *apps.App
	noise float64 // relative stddev of measurement noise
	rng   *rand.Rand

	cur     platform.Config
	phase   int
	simTime float64 // seconds since boot
	energy  float64 // Joules consumed (true, noise-free)
	work    float64 // heartbeats completed (true, fractional)
	monitor heartbeat.Monitor
	faults  *fault.Plan // nil ⇒ no fault injection
}

// New creates a machine running app in the space's minimum configuration.
// noise is the relative standard deviation of performance and power
// measurements (0 for ideal instruments); rng may be nil when noise is 0.
func New(space platform.Space, app *apps.App, noise float64, rng *rand.Rand) (*Machine, error) {
	if err := space.Validate(); err != nil {
		return nil, err
	}
	if err := app.Validate(); err != nil {
		return nil, err
	}
	if noise < 0 {
		return nil, fmt.Errorf("machine: negative noise %g", noise)
	}
	if noise > 0 && rng == nil {
		return nil, fmt.Errorf("machine: noise requires a random source")
	}
	return &Machine{
		space: space,
		app:   app,
		noise: noise,
		rng:   rng,
		cur:   platform.Config{Threads: 1, Speed: 0, MemCtrls: 1},
	}, nil
}

// Space returns the machine's configuration space.
func (m *Machine) Space() platform.Space { return m.space }

// App returns the application under control.
func (m *Machine) App() *apps.App { return m.app }

// Config returns the currently applied configuration.
func (m *Machine) Config() platform.Config { return m.cur }

// InstallFaults installs a fault plan consulted on every actuation and
// sensor reading; nil uninstalls. The fault-free machine pays only a nil
// check and behaves bit-identically to one with no plan installed.
func (m *Machine) InstallFaults(p *fault.Plan) { m.faults = p }

// Faults returns the installed fault plan (nil when fault injection is off).
func (m *Machine) Faults() *fault.Plan { return m.faults }

// Apply switches the machine to configuration c. Reconfiguration is modeled
// as free; the paper measures its runtime cost as part of LEO's overhead
// separately (§6.7). Under an installed fault plan the actuation may fail
// visibly (ErrActuation) or report success without landing.
func (m *Machine) Apply(c platform.Config) error {
	if err := m.space.CheckConfig(c); err != nil {
		return err
	}
	if m.faults.Active() {
		switch m.faults.Actuate(m.space.Index(c)) {
		case fault.ActFail:
			return fmt.Errorf("machine: apply %v: %w", c, ErrActuation)
		case fault.ActDrop:
			return nil // reported success; the configuration never landed
		}
	}
	m.cur = c
	return nil
}

// ApplyIndex switches to the configuration with flat index i.
func (m *Machine) ApplyIndex(i int) error {
	if i < 0 || i >= m.space.N() {
		return fmt.Errorf("machine: configuration index %d out of range [0,%d)", i, m.space.N())
	}
	return m.Apply(m.space.ConfigAt(i))
}

// SetPhase switches the application's workload phase (§6.6).
func (m *Machine) SetPhase(ph int) {
	if ph < 0 || ph >= m.app.NumPhases() {
		panic(fmt.Sprintf("machine: app %s has no phase %d", m.app.Name, ph))
	}
	m.phase = ph
}

// Phase returns the current workload phase.
func (m *Machine) Phase() int { return m.phase }

// Sample is one observation window returned by Run.
type Sample struct {
	Config     platform.Config
	Duration   float64 // seconds
	Heartbeats float64 // heartbeats observed in the window (faults may lose or duplicate batches)
	PerfRate   float64 // measured heartbeat rate (noisy, possibly faulted), beats/s
	Power      float64 // measured average power (noisy, possibly faulted), Watts
	Energy     float64 // true energy consumed in the window, Joules
}

// Run executes the application in the current configuration for duration
// simulated seconds and returns the measured sample. True heartbeats and
// energy accumulate in the machine's internal accounting regardless of
// faults; the sample's Heartbeats, PerfRate and Power are what the
// instruments observed, which an installed fault plan may corrupt.
func (m *Machine) Run(duration float64) Sample {
	if duration <= 0 {
		panic(fmt.Sprintf("machine: non-positive run duration %g", duration))
	}
	rate := m.app.PhasePerformance(m.space, m.cur, m.phase)
	power := m.app.Power(m.space, m.cur)
	beats := rate * duration
	energy := power * duration

	m.simTime += duration
	m.energy += energy
	m.work += beats
	obsBeats := m.faults.Heartbeats(beats)
	if whole := int64(obsBeats); whole > 0 {
		m.monitor.Heartbeat(m.simTime, whole)
	}

	return Sample{
		Config:     m.cur,
		Duration:   duration,
		Heartbeats: obsBeats,
		PerfRate:   m.faults.Perf(m.noisy(rate)),
		Power:      m.faults.Power(m.noisy(power)),
		Energy:     energy,
	}
}

// Idle parks the machine for duration seconds, consuming idle power only.
// Race-to-idle depends on this accounting (§6.2).
func (m *Machine) Idle(duration float64) float64 {
	if duration < 0 {
		panic(fmt.Sprintf("machine: negative idle duration %g", duration))
	}
	e := m.app.IdlePower * duration
	m.simTime += duration
	m.energy += e
	return e
}

// MeasurePerf samples the true heartbeat rate of configuration c with
// measurement noise, without advancing time (a short calibration probe).
// Under faults the probe may read zero (lost heartbeat batch) or a spike.
func (m *Machine) MeasurePerf(c platform.Config) float64 {
	return m.faults.Perf(m.noisy(m.app.PhasePerformance(m.space, c, m.phase)))
}

// MeasurePower samples the true power of configuration c with measurement
// noise, without advancing time. Under faults the reading may be NaN
// (dropout), stale (stuck meter), or spiked.
func (m *Machine) MeasurePower(c platform.Config) float64 {
	return m.faults.Power(m.noisy(m.app.Power(m.space, c)))
}

// Elapsed returns the simulated seconds since boot.
func (m *Machine) Elapsed() float64 { return m.simTime }

// Energy returns the true total energy consumed since boot (Joules).
func (m *Machine) Energy() float64 { return m.energy }

// Work returns the true total heartbeats completed since boot.
func (m *Machine) Work() float64 { return m.work }

// BeatAge returns the simulated seconds since the monitor last received a
// heartbeat batch, or +Inf when none has arrived yet. A watchdog uses this
// to detect stuck or stale heartbeat sensors.
func (m *Machine) BeatAge() float64 {
	last, ok := m.monitor.LastTime()
	if !ok {
		return math.Inf(1)
	}
	return m.simTime - last
}

// Reset clears time, energy, work and heartbeat state, keeping the
// application, configuration and phase.
func (m *Machine) Reset() {
	m.simTime = 0
	m.energy = 0
	m.work = 0
	m.monitor.Reset()
}

func (m *Machine) noisy(v float64) float64 {
	if m.noise == 0 {
		return v
	}
	return v * (1 + m.noise*m.rng.NormFloat64())
}
