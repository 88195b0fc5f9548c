package baseline

import "leo/internal/core"

// StateCarrier is the optional Session capability behind crash-safe state:
// a session that can export its restorable state and re-import it later.
// Only LEO's true incremental session implements it — the adapted baselines
// rebuild their (trivial) state from replayed observations, and the
// controller's snapshot layer skips sessions that do not carry state.
type StateCarrier interface {
	// SessionState captures the restorable state as a deep copy.
	SessionState() *core.SessionState
	// RestoreSessionState replaces the session's state with a previously
	// captured one; on error the session is unchanged. LEO's session keeps
	// the state's subspace frame by reference (core.Session.Restore), so
	// the caller must not mutate the state afterwards.
	RestoreSessionState(*core.SessionState) error
	// StateDigest fingerprints the model the state is only valid against
	// (for LEO, the prior's database and options — see core.Prior.Digest).
	// Restoring state captured under a different digest silently poisons
	// the warm start, so persistence layers must refuse the mismatch.
	StateDigest() uint64
}

// BatchFitter is the optional Session capability behind the serving layer's
// coalesced refits: Stage folds a window's observations in without fitting,
// CoreSession exposes the core.Session so all staged sessions of one Prior
// can be refitted in a single core.FitBatch pass, and FinishFit converts
// that pass's per-session outcome into Update's return contract. For any
// session, Stage + Fit + FinishFit must be indistinguishable from Update —
// leoSession implements Update literally that way. Sessions without the
// capability (the adapted baselines re-run their whole Estimate per Update
// anyway) are updated inline instead of batched.
type BatchFitter interface {
	Stage(obsIdx []int, obsVal []float64) error
	CoreSession() *core.Session
	FinishFit(res *core.Result, err error) ([]float64, error)
}

// OpsCarrier is the optional Session capability behind shared cold-start
// transfer operators: a warm session can export its immutable frozen-refit
// operator cache once, and sessions restored from the same captured state
// adopt it instead of each rebuilding the identical bits (an O(n³) inverse
// per session per metric). Adoption is digest-gated inside core, so a
// mismatched set is simply declined and the session rebuilds on demand —
// the fit results are bit-identical either way.
type OpsCarrier interface {
	// FrozenOps exports the session's frozen-refit operators, building them
	// first if needed; requires a warm session.
	FrozenOps() (*core.FrozenOps, error)
	// AdoptFrozenOps installs a shared operator set when it matches the
	// session's current posterior exactly; reports whether it was adopted.
	AdoptFrozenOps(*core.FrozenOps) bool
}

// HealthReporter is the optional Session capability exposing the numerical-
// health account of the underlying fit — watchdog trips, frozen refits
// rescued by a cold refit, and the accumulated Cholesky jitter that marks a
// chronically ill-conditioned covariance. The controller polls it after
// each Update to feed its degradation ladder.
type HealthReporter interface {
	Health() core.Health
}

func (ls *leoSession) SessionState() *core.SessionState { return ls.s.State() }

func (ls *leoSession) RestoreSessionState(st *core.SessionState) error { return ls.s.Restore(st) }

func (ls *leoSession) StateDigest() uint64 { return ls.s.PriorDigest() }

func (ls *leoSession) Health() core.Health { return ls.s.Health() }

func (ls *leoSession) FrozenOps() (*core.FrozenOps, error) { return ls.s.FrozenOps() }

func (ls *leoSession) AdoptFrozenOps(o *core.FrozenOps) bool { return ls.s.AdoptFrozenOps(o) }
