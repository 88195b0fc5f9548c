GO ?= go

.PHONY: fmt build vet test race check faults bench bench-smoke restart-smoke serve-smoke plan-cache-smoke cluster-smoke

# fmt fails when gofmt would rewrite any Go file, and lists those files.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# check is the PR gate: every file is gofmt-clean, everything builds, vet is
# clean, the full test suite passes under the race detector, every benchmark
# still compiles and single-steps, and the crash-safety and serve-mode
# contracts hold against the real binary.
check: fmt build vet race bench-smoke restart-smoke serve-smoke plan-cache-smoke cluster-smoke

# restart-smoke kills the leo-runtime binary between calibration windows,
# restarts it from its state directory, corrupts the snapshot and tears the
# journal, and requires the recovered energy plan to match an uninterrupted
# run's to round-off.
restart-smoke:
	$(GO) test -run='^TestCrashRestartChaos$$' -count=1 .

# serve-smoke boots the real leo-runtime binary in -serve mode, drives a
# ~50-tenant synthetic fleet over HTTP, SIGTERMs it, and requires a clean
# drain with one snapshot per shard.
serve-smoke:
	$(GO) test -run='^TestServeSmoke$$' -count=1 .

# plan-cache-smoke boots serve mode, drives one tenant through
# register→refit→plan→refit→plan, and requires the plan-cache generation to
# advance across refits with every served plan equal to a fresh pareto
# computation over the server's own reported estimates.
plan-cache-smoke:
	$(GO) test -run='^TestPlanCacheSmoke$$' -count=1 .

# cluster-smoke runs the cluster-level power budgeting sweep end to end on
# the small space: the coordinator, the replayed trace, the rack outage
# schedule, and the report renderer all execute against real controllers.
cluster-smoke:
	$(GO) run ./cmd/leo-experiments -experiment ext-cluster

# bench measures the perf-tracked benchmarks (the full-size EM fit and
# Cholesky factorization, the symmetric-inverse and SYRK kernels behind the
# symmetry-aware E-step, the §6.7 overhead fit, the allocation-free E-step,
# the warm-vs-cold multi-window recalibration pair, one steady-state frozen
# window at the paper's n = 1024, and the metrics-on/off EM iteration pair
# that pins the observability overhead) and records them in BENCH_em.json so
# later changes have a trajectory. A second pass re-measures the parallel
# kernels at 2/4/8 workers (GOMAXPROCS raised to match, -matrix-workers
# capping the pool — results are bit-identical at any width, only the wall
# clock moves) and merges each column into the same record. A final pass
# replays the synthetic fleet against the estimation server over real HTTP and
# merges the service column (windows refit per second, p99 plan latency), then
# runs the cluster coordinator benchmark and merges the cluster column
# (node-epochs per second, cap-violation rate, J/beat).
WORKER_BENCH = 'BenchmarkCholesky1024|BenchmarkCholeskyInverseInto1024|BenchmarkSyrkWoodbury1024x25|BenchmarkMul512Parallel'
bench:
	$(GO) test -run=NONE -bench='BenchmarkLEOOverheadFull|BenchmarkEMFitLarge|BenchmarkCholesky1024|BenchmarkCholeskyInverseInto1024|BenchmarkSyrkWoodbury1024x25|BenchmarkEStepOnly|BenchmarkEstimateSmall$$|BenchmarkCholesky512|BenchmarkMul512Parallel|BenchmarkMultiWindowCold|BenchmarkMultiWindowWarm$$|BenchmarkMultiWindowWarmLarge|BenchmarkEMIterationMetrics' \
		-benchmem -timeout=60m . ./internal/core ./internal/matrix \
		| $(GO) run ./cmd/benchjson -out BENCH_em.json
	for w in 2 4 8; do \
		GOMAXPROCS=$$w $(GO) test -run=NONE -bench=$(WORKER_BENCH) -benchmem -timeout=30m \
			./internal/matrix -args -matrix-workers=$$w \
			| $(GO) run ./cmd/benchjson -out BENCH_em.json -merge -matrix-workers $$w || exit 1; \
	done
	$(GO) test -run=NONE -bench='^BenchmarkServiceThroughput$$' -timeout=30m ./internal/service \
		| $(GO) run ./cmd/benchjson -out BENCH_em.json -merge -service
	$(GO) test -run=NONE -bench='^BenchmarkClusterEpoch$$' -timeout=30m ./internal/cluster \
		| $(GO) run ./cmd/benchjson -out BENCH_em.json -merge -cluster

# bench-smoke compiles and single-steps every benchmark (-short skips the
# full-size matrix kernels; the full-size fits run, one step costs tens of
# milliseconds) so check catches benchmark bit-rot without paying
# measurement time.
bench-smoke:
	$(GO) test -run=NONE -bench=. -benchtime=1x -short ./...

# faults runs the robustness sweep (ext-faults) on the small space.
faults:
	$(GO) run ./cmd/leo-experiments -experiment ext-faults
