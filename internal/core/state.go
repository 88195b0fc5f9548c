package core

import (
	"fmt"
	"math"

	"leo/internal/matrix"
)

// SessionState is the serializable snapshot of a Session: the accumulated
// observations plus — when the session is warm — the posterior parameters
// the next Fit would warm-start from. Everything else a fit reads (the
// frozen-refit operators, its scratch, the prior itself) is deterministically
// rebuilt, so it is deliberately elided: a restored session's next Fit is
// bit-identical to the original's because the EM recurrence depends only on
// (prior, μ, Σ, σ², observations).
//
// Σ is carried in the frame the session holds it in (DESIGN.md §16):
// Σ = αI + P(Σ′−αI)Pᵀ with P = [E_Ω | Q], so a subspace-frame posterior
// costs n·r + d² floats instead of n². An identity-frame posterior has
// SigmaFrame = Σ (n×n) and no Alpha, Omega or Q.
type SessionState struct {
	// Warm reports whether the posterior fields below are set. When false
	// they are nil/zero and the restored session cold-starts from the prior.
	Warm bool
	Mu   []float64 // μ, dense (n)
	// Alpha is Σ's eigenvalue on the frame's complement (> 0).
	Alpha float64
	// Omega lists the configurations of frame coordinates 0..len(Omega)−1.
	Omega []int
	// Q is n×r, orthonormal and zero on Omega's rows; nil when r = 0.
	Q *matrix.Matrix
	// SigmaFrame is Σ′ = PᵀΣP, d×d with d = len(Omega) + r < n, or Σ
	// itself (n×n) in the identity frame.
	SigmaFrame *matrix.Matrix
	Sigma2     float64
	// ObsIdx/ObsVal are the session's observations in insertion order.
	ObsIdx []int
	ObsVal []float64
}

// identity reports whether st's posterior is in the identity frame.
func (st *SessionState) identity() bool { return st.SigmaFrame.Rows == len(st.Mu) }

// DenseSigma returns the posterior covariance Σ as a dense n×n matrix (a
// fresh copy), or nil for a cold state. For a subspace frame it forms
// αI + P(Σ′−αI)Pᵀ in O(n²·d); no fit ever does.
func (st *SessionState) DenseSigma() *matrix.Matrix {
	if !st.Warm || st.SigmaFrame == nil {
		return nil
	}
	if st.identity() {
		return st.SigmaFrame.Clone()
	}
	n := len(st.Mu)
	sp := &subspace{omega: st.Omega, q: st.Q}
	if sp.q == nil {
		sp.q = matrix.New(n, 0)
	}
	sp.frame = frame{n: st.SigmaFrame.Rows, full: n, alpha: st.Alpha, sigma: st.SigmaFrame}
	sigma := matrix.New(n, n)
	sp.materialize(sigma)
	return sigma
}

// State captures the session's restorable state as a deep copy: later
// mutation of the session (or the returned state) affects neither.
func (s *Session) State() *SessionState {
	st := &SessionState{Warm: s.warm}
	st.ObsIdx, st.ObsVal = s.Observations()
	if s.warm {
		st.Mu = matrix.CloneVec(s.mu)
		st.Sigma2 = s.sigma2
		if h := s.heldFrame(); h != nil {
			st.Alpha = h.alpha
			st.Omega = append([]int(nil), h.omega...)
			if h.q.Cols > 0 {
				st.Q = h.q.Clone()
			}
			st.SigmaFrame = h.sigma.Clone()
		} else {
			st.SigmaFrame = s.sigma.Clone()
		}
	}
	return st
}

// frameTol bounds |QᵀQ − I| for a restored basis: subspace.basis
// re-orthogonalizes to round-off (1e-13 at the paper size), so anything
// this far off was not written by a fit.
const frameTol = 1e-10

// validateFrame checks a warm state's posterior against n configurations:
// shapes that agree, distinct in-range Ω entries, a Q that vanishes on Ω's
// rows and is orthonormal, finite values and α > 0.
func (st *SessionState) validateFrame(n int) error {
	if len(st.Mu) != n {
		return fmt.Errorf("core: state μ length %d != %d configurations", len(st.Mu), n)
	}
	sf := st.SigmaFrame
	if sf == nil || sf.Rows != sf.Cols || sf.Rows > n {
		return fmt.Errorf("core: state Σ′ shape does not fit %d configurations", n)
	}
	if !finiteVec(st.Mu) || !finiteVec(sf.Data) {
		return fmt.Errorf("core: non-finite state posterior")
	}
	if math.IsNaN(st.Sigma2) || math.IsInf(st.Sigma2, 0) || st.Sigma2 <= 0 {
		return fmt.Errorf("core: state noise variance %g not positive", st.Sigma2)
	}
	r := 0
	if st.Q != nil {
		r = st.Q.Cols
	}
	if st.identity() {
		if len(st.Omega) != 0 || r != 0 {
			return fmt.Errorf("core: identity-frame state carries a frame basis")
		}
		return nil
	}
	if len(st.Omega)+r != sf.Rows {
		return fmt.Errorf("core: state frame of dimension %d has %d observed and %d basis directions",
			sf.Rows, len(st.Omega), r)
	}
	if st.Q != nil && st.Q.Rows != n {
		return fmt.Errorf("core: state basis has %d rows, want %d", st.Q.Rows, n)
	}
	if math.IsNaN(st.Alpha) || math.IsInf(st.Alpha, 0) || st.Alpha <= 0 {
		return fmt.Errorf("core: state complement eigenvalue %g not positive", st.Alpha)
	}
	seen := make(map[int]bool, len(st.Omega))
	for _, j := range st.Omega {
		if j < 0 || j >= n || seen[j] {
			return fmt.Errorf("core: state frame index %d out of range or repeated", j)
		}
		seen[j] = true
	}
	if r == 0 {
		return nil
	}
	if !finiteVec(st.Q.Data) {
		return fmt.Errorf("core: non-finite state basis")
	}
	for _, j := range st.Omega {
		for _, v := range st.Q.RowView(j) {
			if v != 0 {
				return fmt.Errorf("core: state basis is nonzero on observed configuration %d", j)
			}
		}
	}
	gram := matrix.New(r, r)
	for j := 0; j < n; j++ {
		gram.AddScaledOuter(1, st.Q.RowView(j), st.Q.RowView(j))
	}
	if d := gram.MaxAbsDiff(matrix.Identity(r)); !(d <= frameTol) {
		return fmt.Errorf("core: state basis off orthonormal by %g", d)
	}
	return nil
}

// Restore replaces the session's observations and warm-start parameters with
// st, validating shapes and finiteness first — persisted state passes a
// checksum before it gets here, but a checksum only proves the bytes are the
// ones written, not that they describe a usable model. On any validation
// error the session is left unchanged. A successful restore makes the next
// Fit bit-identical to what the captured session's next Fit would have been.
//
// μ and the observations are copied, but a subspace frame (Omega, Q and
// SigmaFrame) is kept by reference: every session restored from one state
// shares its frame, which no fit writes through (a cold fit builds a new
// one), so the caller must not mutate st afterwards.
func (s *Session) Restore(st *SessionState) error {
	if st == nil {
		return fmt.Errorf("core: nil session state")
	}
	if len(st.ObsIdx) != len(st.ObsVal) {
		return fmt.Errorf("core: state has %d observation indices but %d values", len(st.ObsIdx), len(st.ObsVal))
	}
	for i, idx := range st.ObsIdx {
		if idx < 0 || idx >= s.n {
			return fmt.Errorf("core: state observation index %d out of range [0,%d)", idx, s.n)
		}
		if v := st.ObsVal[i]; math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("core: non-finite state observation %g", v)
		}
	}
	if st.Warm {
		if err := st.validateFrame(s.n); err != nil {
			return err
		}
	}
	s.Reset()
	// The restored parameters need not match the ones the operator set was
	// built against; the next frozen fit rebuilds it (the set is a pure
	// function of the posterior and σ², so the rebuild is bit-identical to
	// what the captured session computed incrementally).
	s.ops = nil
	s.held = heldFrame{}
	for i, idx := range st.ObsIdx {
		if err := s.Add(idx, st.ObsVal[i]); err != nil {
			return err
		}
	}
	if st.Warm {
		s.mu = growVec(s.mu, s.n)
		copy(s.mu, st.Mu)
		s.sigma2 = st.Sigma2
		if st.identity() {
			matrix.CloneInto(s.sigmaBuf(), st.SigmaFrame)
		} else {
			q := st.Q
			if q == nil {
				q = matrix.New(s.n, 0)
			}
			s.held = heldFrame{alpha: st.Alpha, omega: st.Omega, q: q, sigma: st.SigmaFrame}
		}
		s.warm = true
	}
	return nil
}

// PriorDigest returns the digest of the prior this session was opened from;
// see Prior.Digest.
func (s *Session) PriorDigest() uint64 { return s.prior.Digest() }

// Digest fingerprints the prior: the database's shape and exact bits plus
// every option that affects a fit, folded through FNV-1a. Persisted session
// state records it so a snapshot taken against one prior is never restored
// into a session derived from a different one (a changed database or option
// set would silently poison the warm start). The fold is computed once —
// the prior is immutable — and served from cache afterwards; admission
// paths compare digests on every transfer.
func (p *Prior) Digest() uint64 {
	p.digestOnce.Do(func() { p.digest = p.computeDigest() })
	return p.digest
}

func (p *Prior) computeDigest() uint64 {
	h := fnvOffset
	h = fnvU64(h, 0x4c454f5052494f52) // "LEOPRIOR"
	h = fnvU64(h, uint64(p.known.Rows))
	h = fnvU64(h, uint64(p.known.Cols))
	for _, v := range p.known.Data {
		h = fnvU64(h, math.Float64bits(v))
	}
	o := p.opts
	h = fnvU64(h, uint64(o.MaxIter))
	h = fnvU64(h, uint64(o.WarmMaxIter))
	h = fnvU64(h, math.Float64bits(o.Tol))
	h = fnvU64(h, math.Float64bits(o.Pi))
	h = fnvU64(h, math.Float64bits(o.SigmaFloor))
	h = fnvU64(h, math.Float64bits(o.HealthLLDrop))
	// The two false slots held the retired exact and naive E-step options;
	// packing them as false keeps every persisted digest valid.
	h = fnvU64(h, packBools(o.ZeroInit, false, false,
		o.StrictPaperSigma, o.StrictConvergence, o.DisableHealthChecks, o.InitMu != nil))
	for _, v := range o.InitMu {
		h = fnvU64(h, math.Float64bits(v))
	}
	return h
}

// FNV-1a, 64-bit, folded one uint64 (8 bytes, little-endian order) at a time.
const (
	fnvOffset uint64 = 0xcbf29ce484222325
	fnvPrime  uint64 = 0x100000001b3
)

func fnvU64(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= fnvPrime
		v >>= 8
	}
	return h
}

func packBools(bs ...bool) uint64 {
	var v uint64
	for i, b := range bs {
		if b {
			v |= 1 << uint(i)
		}
	}
	return v
}
