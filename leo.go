// Package leo is a Go implementation of LEO (Learning for Energy
// Optimization) from "A Probabilistic Graphical Model-based Approach for
// Minimizing Energy Under Performance Constraints" (Mishra, Zhang, Lafferty,
// Hoffmann — ASPLOS 2015).
//
// LEO estimates an application's power and performance in every
// configuration of a configurable machine from (1) an offline database of
// previously profiled applications and (2) a handful of online observations
// of the running application, using a hierarchical Bayesian model fit with
// EM. The estimates feed a Pareto-hull energy planner and a heartbeat-driven
// runtime controller that completes work by deadlines at near-minimal
// energy.
//
// The package is a facade over the internal implementation:
//
//   - Spaces and configurations       (internal/platform)
//   - Synthetic benchmark suite       (internal/apps)
//   - Machine simulator               (internal/machine)
//   - Profile databases and sampling  (internal/profile)
//   - The LEO model                   (internal/core)
//   - Baseline estimators             (internal/baseline)
//   - Energy planning                 (internal/pareto)
//   - Runtime control                 (internal/control)
//
// A minimal end-to-end use:
//
//	space := leo.PaperSpace()
//	db, _ := leo.CollectProfiles(space, leo.Benchmarks(), 0, nil)
//	rest, truthPerf, _, _ := db.LeaveOneOut(0)
//	est := leo.NewLEOEstimator(rest.Perf, leo.ModelOptions{})
//	mask := leo.RandomMask(space.N(), 20, rng)
//	obs := leo.Observe(truthPerf, mask, 0, nil)
//	pred, _ := est.Estimate(obs.Indices, obs.Values)
//	fmt.Println(leo.Accuracy(pred, truthPerf))
//
// The offline model behind an estimator is a shared, immutable Prior; a
// long-running service fits it once and serves each target application
// through an incremental Session. Sessions accumulate observations across
// control windows, warm-start every refit from the previous posterior, and
// honor context cancellation mid-fit:
//
//	prior, _ := leo.NewModelPrior(rest.Perf, leo.ModelOptions{})
//	est := leo.NewLEOEstimatorFromPrior(prior) // shares the offline fit
//	sess, _ := est.NewSession(ctx)
//	for window := 0; window < 10; window++ {
//	    obs := nextProbes(window)
//	    pred, err := sess.Update(ctx, obs.Indices, obs.Values)
//	    if errors.Is(err, leo.ErrEstimationCanceled) {
//	        return // shutdown: the fit aborted within one EM iteration
//	    }
//	    plan(pred)
//	}
//
// See the examples/ directory for runnable programs and DESIGN.md for the
// experiment-by-experiment reproduction index.
package leo

import (
	"context"
	"io"
	"math/rand"

	"leo/internal/apps"
	"leo/internal/baseline"
	"leo/internal/cluster"
	"leo/internal/colocate"
	"leo/internal/control"
	"leo/internal/core"
	"leo/internal/fault"
	"leo/internal/machine"
	"leo/internal/pareto"
	"leo/internal/persist"
	"leo/internal/platform"
	"leo/internal/profile"
	"leo/internal/sampling"
	"leo/internal/service"
	"leo/internal/stats"
	"leo/internal/trace"
)

// Platform types.
type (
	// Space is a machine configuration space (threads × speeds × memory
	// controllers).
	Space = platform.Space
	// Config identifies one machine configuration.
	Config = platform.Config
)

// PaperSpace returns the paper's full 1024-configuration platform.
func PaperSpace() Space { return platform.Paper() }

// SmallSpace returns a fast 128-configuration platform with all dimensions
// active.
func SmallSpace() Space { return platform.Small() }

// CoresOnlySpace returns the 32-configuration core-allocation space of the
// paper's motivating example.
func CoresOnlySpace() Space { return platform.CoresOnly() }

// Application types.
type (
	// App is a synthetic application response surface.
	App = apps.App
	// Phase is one workload phase of an App.
	Phase = apps.Phase
	// Input perturbs an application's response surface the way a different
	// dataset would (App.WithInput).
	Input = apps.Input
)

// Benchmarks returns fresh copies of the 25-application benchmark suite.
func Benchmarks() []*App { return apps.Suite() }

// Benchmark returns the named suite application.
func Benchmark(name string) (*App, error) { return apps.ByName(name) }

// BenchmarkNames lists the suite's application names.
func BenchmarkNames() []string { return apps.Names() }

// Profiling types.
type (
	// Database is an offline profiling database (apps × configurations).
	Database = profile.Database
	// Observations pairs sampled configuration indices with measured values.
	Observations = profile.Observations
)

// CollectProfiles profiles applications across a space with optional
// relative measurement noise.
func CollectProfiles(space Space, list []*App, noise float64, rng *rand.Rand) (*Database, error) {
	return profile.Collect(space, list, noise, rng)
}

// LoadDatabase reads a database written with Database.Save.
func LoadDatabase(r io.Reader) (*Database, error) { return profile.Load(r) }

// RandomMask draws k distinct configuration indices uniformly at random.
func RandomMask(n, k int, rng *rand.Rand) []int { return profile.RandomMask(n, k, rng) }

// UniformMask returns k evenly spaced configuration indices.
func UniformMask(n, k int) []int { return profile.UniformMask(n, k) }

// Observe samples truth at the masked indices with optional noise.
func Observe(truth []float64, mask []int, noise float64, rng *rand.Rand) Observations {
	return profile.Observe(truth, mask, noise, rng)
}

// Estimation types.
type (
	// Estimator predicts a metric for every configuration from sparse
	// observations.
	Estimator = baseline.Estimator
	// ModelOptions configures LEO's EM fit.
	ModelOptions = core.Options
	// ModelResult is the output of one EM fit: the estimate, its posterior
	// variance, the noise level and convergence facts. It carries no copy
	// of the fitted population parameters μ and Σ: fit a ModelSession and
	// read them with its State (SessionState.DenseSigma forms Σ densely).
	ModelResult = core.Result
)

// NewLEOEstimator builds LEO over an offline data matrix (one fully profiled
// application per row).
func NewLEOEstimator(known *Matrix, opts ModelOptions) Estimator {
	return baseline.NewLEO(known, opts)
}

// NewOnlineEstimator builds the polynomial-regression baseline for a space.
func NewOnlineEstimator(space Space) Estimator { return baseline.NewOnline(space) }

// NewOfflineEstimator builds the offline (population mean) baseline.
func NewOfflineEstimator(known *Matrix) (Estimator, error) { return baseline.NewOffline(known) }

// NewExhaustiveEstimator wraps a ground-truth vector.
func NewExhaustiveEstimator(truth []float64) Estimator { return baseline.NewExhaustive(truth) }

// NewOracleEstimator wraps a ground-truth source that is re-read on every
// estimate (e.g. phase-dependent truth).
func NewOracleEstimator(fn func() []float64) Estimator { return baseline.NewOracle(fn) }

// FitModel runs one cold LEO fit directly and returns its prediction, the
// prediction's posterior variance and the fitted noise level. The fit's
// session is discarded; use NewModelPrior and a ModelSession to keep or
// inspect the fitted parameters.
func FitModel(known *Matrix, obsIdx []int, obsVal []float64, opts ModelOptions) (*ModelResult, error) {
	return core.Estimate(known, obsIdx, obsVal, opts)
}

// FitModelContext is FitModel under a caller-supplied context: EM checks the
// context between iterations and aborts with an error wrapping
// ErrEstimationCanceled.
func FitModelContext(ctx context.Context, known *Matrix, obsIdx []int, obsVal []float64, opts ModelOptions) (*ModelResult, error) {
	return core.EstimateContext(ctx, known, obsIdx, obsVal, opts)
}

// Offline/online split types: the Prior is the expensive offline half of the
// model (fit once per database, immutable, safe for concurrent use); Sessions
// are the cheap online half (one per application lifetime, incremental
// observations, warm-started EM).
type (
	// ModelPrior is the immutable offline model shared across sessions.
	ModelPrior = core.Prior
	// ModelSession is one incremental estimation session over a ModelPrior.
	// Its Fit results carry no copy of the fitted μ and Σ; State returns
	// them (a deep copy). Not safe for concurrent use; open one per
	// goroutine.
	ModelSession = core.Session
	// EstimatorSession is the estimator-level session interface
	// (Estimator.NewSession); trivial estimators adapt their one-shot
	// Estimate, LEO carries a warm ModelSession.
	EstimatorSession = baseline.Session
)

// ErrEstimationCanceled marks a fit aborted by context cancellation. Errors
// wrap both it and the context's own error; check with errors.Is.
var ErrEstimationCanceled = core.ErrCanceled

// NewModelPrior fits the offline half of the model over a profile matrix.
// The result serves any number of concurrent Estimate calls and Sessions.
func NewModelPrior(known *Matrix, opts ModelOptions) (*ModelPrior, error) {
	return core.NewPrior(known, opts)
}

// NewLEOEstimatorFromPrior builds a LEO estimator over an already-fit Prior,
// sharing it instead of refitting the offline model (leave-one-out sweeps
// build each fold's Prior once this way).
func NewLEOEstimatorFromPrior(prior *ModelPrior) Estimator {
	return baseline.NewLEOFromPrior(prior)
}

// Matrix is the dense matrix type used for profile data.
type Matrix = matrixType

// Planning types.
type (
	// Plan is a minimal-energy schedule for one (work, deadline) demand.
	Plan = pareto.Plan
	// Allocation is time assigned to one configuration within a Plan.
	Allocation = pareto.Allocation
	// ParetoPoint is one configuration in the power/performance tradeoff
	// space.
	ParetoPoint = pareto.Point
)

// MinimizeEnergy plans the minimal-energy schedule completing w heartbeats
// within t seconds given per-configuration estimates and the idle power.
func MinimizeEnergy(perf, power []float64, idlePower, w, t float64) (*Plan, error) {
	return pareto.MinimizeEnergy(perf, power, idlePower, w, t)
}

// MaximizePerformance solves the dual problem: the fastest time-sharing
// schedule whose average power stays under powerCap (an extension beyond
// the paper's Eq. (1); see §7's discussion of power-capped systems).
func MaximizePerformance(perf, power []float64, idlePower, powerCap, t float64) (*Plan, error) {
	return pareto.MaximizePerformance(perf, power, idlePower, powerCap, t)
}

// ParetoFrontier returns the Pareto-optimal (performance, power) points.
func ParetoFrontier(perf, power []float64) []ParetoPoint { return pareto.Frontier(perf, power) }

// ParetoHull returns the lower convex hull of the tradeoff points.
func ParetoHull(points []ParetoPoint) []ParetoPoint { return pareto.LowerHull(points) }

// Execution types.
type (
	// Machine simulates an application on the configurable platform.
	Machine = machine.Machine
	// Sample is one measured execution window.
	Sample = machine.Sample
	// Controller drives a machine with an estimation policy.
	Controller = control.Controller
	// JobResult summarizes one executed job.
	JobResult = control.JobResult
	// PhasedSpec describes a phased real-time workload.
	PhasedSpec = control.PhasedSpec
	// PhasedResult aggregates a phased run.
	PhasedResult = control.PhasedResult
	// FrameRecord is one frame of a phased run.
	FrameRecord = control.FrameRecord
)

// Fault-injection and resilience types (robustness extension): a seeded
// FaultPlan installed on a Machine injects deterministic sensor/actuation
// faults, and the Controller's degradation ladder (Tier, Resilience)
// tolerates them, accounting everything in a DegradationReport.
type (
	// FaultKind enumerates the injectable fault classes.
	FaultKind = fault.Kind
	// FaultSpec configures per-kind fault rates and a config blacklist.
	FaultSpec = fault.Spec
	// FaultPlan is a deterministic, seeded fault schedule.
	FaultPlan = fault.Plan
	// Tier is one rung of a controller's degradation ladder.
	Tier = control.Tier
	// Resilience tunes the hardened control loop.
	Resilience = control.Resilience
	// DegradationReport accounts for engaged resilience mechanisms.
	DegradationReport = control.DegradationReport
)

// Injectable fault kinds.
const (
	PowerDropout    = fault.PowerDropout
	PowerStuck      = fault.PowerStuck
	SensorSpike     = fault.SensorSpike
	HeartbeatLoss   = fault.HeartbeatLoss
	HeartbeatDup    = fault.HeartbeatDup
	ActuationFail   = fault.ActuationFail
	ActuationDrop   = fault.ActuationDrop
	ConfigBlacklist = fault.ConfigBlacklist
	// Crash/corruption kinds, injected directly by the functions below
	// rather than drawn from a FaultPlan.
	SnapshotBitFlip    = fault.SnapshotBitFlip
	JournalTruncation  = fault.JournalTruncation
	KillBetweenWindows = fault.KillBetweenWindows
)

// NewFaultPlan builds a deterministic fault schedule from a seed and spec.
func NewFaultPlan(seed int64, spec FaultSpec) (*FaultPlan, error) { return fault.New(seed, spec) }

// UniformFaults returns a spec with every probabilistic fault kind firing at
// the given per-event rate.
func UniformFaults(rate float64) FaultSpec { return fault.Uniform(rate) }

// FlipBit flips one seeded-random bit of the file at path (SnapshotBitFlip).
func FlipBit(path string, seed int64) error { return fault.FlipBit(path, seed) }

// TruncateTail cuts the file at path to frac of its length
// (JournalTruncation) — a torn write that lands mid-record.
func TruncateTail(path string, frac float64) error { return fault.TruncateTail(path, frac) }

// CrashPoint deterministically picks the control window, in [1, windows],
// after which a chaos test should kill the process (KillBetweenWindows).
func CrashPoint(seed int64, windows int) int { return fault.CrashPoint(seed, windows) }

// Crash-safe state persistence (robustness extension): a StateStore pairs
// atomic snapshots with a checksummed write-ahead journal so a controller
// restarted after a crash resumes its estimation state — warm posterior,
// ladder rung, and all journaled calibration windows — bit-identically to a
// run that never died. Attach with Controller.AttachStateStore; persist on
// shutdown with Controller.SnapshotState.
type (
	// StateStore persists controller estimation state in one directory.
	StateStore = persist.Store
	// RecoveryReport describes what AttachStateStore reconstructed.
	RecoveryReport = control.RecoveryReport
)

// OpenStateStore opens (creating as needed) a state directory, repairing any
// torn journal tail left by a crash.
func OpenStateStore(dir string) (*StateStore, error) { return persist.Open(dir) }

// Fleet estimation service (leo-runtime -serve). The service multiplexes
// thousands of tenant Sessions over shared class Priors behind an HTTP/JSON
// API, sharded across single-writer workers that coalesce same-Prior refits
// into FitBatch passes. See DESIGN.md §13.
type (
	// ServiceClass is one application class tenants register under: a
	// degradation ladder of estimator tiers plus a default idle power.
	ServiceClass = service.Class
	// ServiceConfig configures an estimation server.
	ServiceConfig = service.Config
	// EstimationServer is the multi-tenant estimation service: serve
	// Handler, stop with Close.
	EstimationServer = service.Server
	// TrafficClass names one application class in a synthetic tenant trace.
	TrafficClass = service.TrafficClass
	// TrafficConfig shapes a synthetic tenant trace.
	TrafficConfig = service.TrafficConfig
	// TrafficEvent is one register/observe/plan event in a tenant trace.
	TrafficEvent = service.Event
)

// Traffic event kinds (TrafficEvent.Kind).
const (
	EvRegisterTraffic = service.EvRegister
	EvObserveTraffic  = service.EvObserve
	EvPlanTraffic     = service.EvPlan
)

// NewEstimationServer builds and starts an estimation server (recovering
// tenant state from ServiceConfig.StateDir when set).
func NewEstimationServer(cfg ServiceConfig) (*EstimationServer, error) { return service.New(cfg) }

// StandardServiceLadder builds the canonical class ladder: LEO over the
// shared priors, then the Online and Offline baselines.
func StandardServiceLadder(space Space, perfPrior, powerPrior *ModelPrior, knownPerf, knownPower *Matrix) ([]Tier, error) {
	return service.StandardLadder(space, perfPrior, powerPrior, knownPerf, knownPower)
}

// GenerateServiceTraffic expands a TrafficConfig into a deterministic,
// time-ordered event stream for load-testing an estimation server.
func GenerateServiceTraffic(cfg TrafficConfig) ([]TrafficEvent, error) {
	return service.GenerateTraffic(cfg)
}

// Cluster-level power budgeting (extension; see DESIGN.md §14). A cluster
// Coordinator owns one global power cap and splits it across simulated nodes
// each running its own LEO controller, rebalancing every epoch from the
// nodes' demand estimates and last epoch's reported overshoot, while a
// replayed tenant trace churns applications across nodes and a rack outage
// schedule takes whole node groups down.
type (
	// ClusterConfig configures one cluster simulation.
	ClusterConfig = cluster.Config
	// ClusterResult aggregates a cluster run: energy, completed work,
	// global-cap violations, and per-node overshoot accounting.
	ClusterResult = cluster.Result
	// ClusterNodeFactory builds a fresh controller and machine when a tenant
	// episode cold-starts on a node.
	ClusterNodeFactory = cluster.NodeFactory
	// RackOutage is one interval during which a whole rack is down.
	RackOutage = fault.RackOutage
	// RackOutages is a rack outage schedule, queryable by rack and time.
	RackOutages = fault.Outages
)

// RunCluster executes a cluster simulation to completion. Runs are serial
// and deterministic: the same config always yields the same result.
func RunCluster(cfg ClusterConfig) (*ClusterResult, error) { return cluster.Run(cfg) }

// RackOutageSchedule draws a deterministic schedule of correlated rack-level
// outages: per-rack Poisson failure arrivals with exponential repair times,
// seeded so adding racks never perturbs the schedule of existing ones.
func RackOutageSchedule(seed int64, racks int, horizon, meanBetween, meanDown float64) (RackOutages, error) {
	return fault.RackSchedule(seed, racks, horizon, meanBetween, meanDown)
}

// ErrActuation marks a transient, retryable configuration-change failure.
var ErrActuation = machine.ErrActuation

// NewMachine builds a machine simulator for an application.
func NewMachine(space Space, app *App, noise float64, rng *rand.Rand) (*Machine, error) {
	return machine.New(space, app, noise, rng)
}

// NewController builds a runtime controller. Pass nil estimators for the
// race-to-idle heuristic.
func NewController(name string, mach *Machine, estPerf, estPower Estimator, samples int, rng *rand.Rand) (*Controller, error) {
	return control.New(name, mach, estPerf, estPower, samples, rng)
}

// Accuracy computes the paper's Eq. (5) estimation-accuracy metric.
func Accuracy(estimate, truth []float64) float64 { return stats.Accuracy(estimate, truth) }

// Multi-tenant coordination types (extension, §7's Bitirgen direction).
type (
	// Tenant is one co-located application's profile and demand.
	Tenant = colocate.Tenant
	// Assignment is a static thread/clock partition across tenants.
	Assignment = colocate.Assignment
)

// PlanColocation partitions threads and picks the shared clock so every
// tenant meets its rate at minimal combined power.
func PlanColocation(space Space, tenants []Tenant, idlePower float64) (*Assignment, error) {
	return colocate.Plan(space, tenants, idlePower)
}

// ColocationVerifier measures a tenant's true rate at a configuration.
type ColocationVerifier = colocate.Verifier

// PlanColocationVerified plans from estimates, probes the assigned
// configurations, and re-plans on disagreement (up to `rounds` times).
func PlanColocationVerified(space Space, tenants []Tenant, verify ColocationVerifier, idlePower float64, rounds int) (*Assignment, error) {
	return colocate.PlanVerified(space, tenants, verify, idlePower, rounds)
}

// ColocationPower evaluates an assignment under true tenant power profiles.
func ColocationPower(space Space, a *Assignment, tenants []Tenant, idlePower float64) (float64, error) {
	return colocate.CombinedPower(space, a, tenants, idlePower)
}

// ColocationRates evaluates each tenant's rate under an assignment.
func ColocationRates(space Space, a *Assignment, tenants []Tenant) ([]float64, error) {
	return colocate.Rates(space, a, tenants)
}

// Sampling types (extension: active, variance-driven probing).
type (
	// SamplingPolicy selects which configurations to probe online.
	SamplingPolicy = sampling.Policy
	// Measure probes one configuration.
	Measure = sampling.Measure
	// RandomSampling probes uniformly random configurations (the paper's
	// policy, §6.3).
	RandomSampling = sampling.Random
	// UniformSampling probes evenly spaced configurations (§2).
	UniformSampling = sampling.Uniform
	// ActiveSampling greedily probes the highest posterior-variance
	// configuration under the hierarchical model.
	ActiveSampling = sampling.Active
)

// TruthMeasure adapts a ground-truth vector into a Measure with optional
// multiplicative noise.
func TruthMeasure(truth []float64, noise float64, rng *rand.Rand) Measure {
	return sampling.TruthMeasure(truth, noise, rng)
}

// Workload-trace types (utilization generators for driving the controller).
type (
	// Trace is a sequence of utilization intervals.
	Trace = trace.Trace
	// TracePoint is one interval of a Trace.
	TracePoint = trace.Point
)

// DiurnalTrace builds a day-like raised-sine demand curve.
func DiurnalTrace(intervals int, interval, low, high float64) (Trace, error) {
	return trace.Diurnal(intervals, interval, low, high)
}

// PoissonTrace builds demand from Poisson job arrivals.
func PoissonTrace(intervals int, interval, lambda, jobCost float64, rng *rand.Rand) (Trace, error) {
	return trace.Poisson(intervals, interval, lambda, jobCost, rng)
}

// BurstyTrace alternates base demand with geometric bursts.
func BurstyTrace(intervals int, interval, base, burst, burstProb float64, rng *rand.Rand) (Trace, error) {
	return trace.Bursty(intervals, interval, base, burst, burstProb, rng)
}

// MarkovTrace switches between demand levels with a fixed per-interval
// probability.
func MarkovTrace(intervals int, interval float64, levels []float64, switchProb float64, rng *rand.Rand) (Trace, error) {
	return trace.MarkovPhases(intervals, interval, levels, switchProb, rng)
}

// ConstantTrace holds one demand level.
func ConstantTrace(intervals int, interval, utilization float64) (Trace, error) {
	return trace.Constant(intervals, interval, utilization)
}
