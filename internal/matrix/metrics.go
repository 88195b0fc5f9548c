package matrix

import (
	"time"

	"leo/internal/metrics"
)

// Kernel observability: call counts and cumulative nanoseconds for the three
// hot dense kernels (GEMM, Cholesky factorization, triangular solves). The
// pattern at every instrumented site is
//
//	t := kernelClock()
//	... kernel body ...
//	kernelDone(t, mXCalls, mXNs)
//
// which costs two clock reads and two atomic adds per call — noise against
// kernels that run for microseconds to milliseconds — and allocates nothing,
// preserving the EM loop's zero-allocation steady state. When metrics are
// globally disabled even the clock reads are skipped.
var (
	mGemmCalls = metrics.NewCounter("leo_matrix_gemm_calls_total",
		"dense matrix-multiply kernel invocations")
	mGemmNs = metrics.NewCounter("leo_matrix_gemm_ns_total",
		"cumulative nanoseconds inside the GEMM kernel")
	mCholCalls = metrics.NewCounter("leo_matrix_cholesky_calls_total",
		"Cholesky factorization attempts (each jitter retry counts once)")
	mCholNs = metrics.NewCounter("leo_matrix_cholesky_ns_total",
		"cumulative nanoseconds inside the Cholesky factorization kernel")
	mSolveCalls = metrics.NewCounter("leo_matrix_solve_calls_total",
		"batched/vector triangular-solve invocations against a Cholesky factor")
	mSolveNs = metrics.NewCounter("leo_matrix_solve_ns_total",
		"cumulative nanoseconds inside the triangular solves")
	mSyrkCalls = metrics.NewCounter("leo_matrix_syrk_calls_total",
		"symmetric rank-k (A·Aᵀ) kernel invocations")
	mSyrkNs = metrics.NewCounter("leo_matrix_syrk_ns_total",
		"cumulative nanoseconds inside the SYRK kernel")
	mInverseCalls = metrics.NewCounter("leo_matrix_inverse_calls_total",
		"DPOTRI-style symmetric inverse invocations against a Cholesky factor")
	mInverseNs = metrics.NewCounter("leo_matrix_inverse_ns_total",
		"cumulative nanoseconds inside the symmetric inverse kernel")
)

// kernelClock returns the kernel start time, or the zero Time when metrics
// are disabled (kernelDone then skips the second clock read too).
func kernelClock() time.Time {
	if !metrics.Enabled() {
		return time.Time{}
	}
	return time.Now()
}

// kernelDone records one kernel completion started at t.
func kernelDone(t time.Time, calls, ns *metrics.Counter) {
	if t.IsZero() {
		return
	}
	calls.Inc()
	ns.Add(uint64(time.Since(t)))
}
