GO ?= go

.PHONY: fmt build vet perfbench-vet test race check check-full faults bench bench-smoke fuzz-smoke restart-smoke serve-smoke plan-cache-smoke cluster-smoke

# fmt fails when gofmt would rewrite any Go file, and lists those files.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# perfbench-vet compiles and vets the benchmark harness and its tests.
# perfbench is its own module (leo/perfbench, replace leo => ../), so
# build and vet above never reach it: an export it calls could be deleted
# with every other check still green.
perfbench-vet:
	cd perfbench && $(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# check is the PR gate: every file is gofmt-clean, everything builds, vet is
# clean (the perfbench module's too), the full test suite passes under the
# race detector, every benchmark still compiles and single-steps, every fuzz
# target survives a short mutation run, and the crash-safety and serve-mode
# contracts hold against the real binary.
check: fmt build vet perfbench-vet race bench-smoke fuzz-smoke restart-smoke serve-smoke plan-cache-smoke cluster-smoke

# check-full renders leo-experiments -experiment all -size full (the
# paper's 1024-configuration space, about 15 s) and diffs it against
# results_full.txt with the timing lines masked: the bit-identity gate for
# the data-subspace frames, which only the paper size builds at scale.
check-full:
	$(GO) test -run='^TestExperimentsGoldenFull$$' -count=1 -timeout=30m . -args -full

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
# window, the first frozen refit after a cold fit and a perf+power cold
# calibration from fresh sessions at the paper's n = 1024, one planner build
# plus plan over the paper space, and the metrics-on/off EM iteration pair
# that pins the observability overhead) and records them in BENCH_em.json so
# later changes have a trajectory. GOMAXPROCS is left at the machine's width.
# Two more passes merge their rows into the same record: the synthetic fleet
# replayed against the estimation server over real HTTP (windows refit per
# second, plans per second, p99 plan latency), then the cluster coordinator
# (node-epochs per second, cap-violation rate, J/beat).
bench:
	$(GO) test -run=NONE -bench='BenchmarkLEOOverheadFull|BenchmarkEMFitLarge|BenchmarkCholesky1024|BenchmarkCholeskyInverseInto1024|BenchmarkSyrkWoodbury1024x25|BenchmarkEStepOnly|BenchmarkEstimateSmall$$|BenchmarkCholesky512|BenchmarkMul512$$|BenchmarkMultiWindowCold|BenchmarkMultiWindowWarm$$|BenchmarkMultiWindowWarmLarge|BenchmarkFirstFrozenRefitLarge|BenchmarkColdCalibrateLarge|BenchmarkPlannerPaper|BenchmarkEMIterationMetrics' \
		-benchmem -timeout=60m . ./internal/core ./internal/matrix \
		| $(GO) run ./cmd/benchjson -out BENCH_em.json
	$(GO) test -run=NONE -bench='^BenchmarkServiceThroughput$$' -timeout=30m ./internal/service \
		| $(GO) run ./cmd/benchjson -out BENCH_em.json -merge
	$(GO) test -run=NONE -bench='^BenchmarkClusterEpoch$$' -timeout=30m ./internal/cluster \
		| $(GO) run ./cmd/benchjson -out BENCH_em.json -merge

# bench-smoke compiles and single-steps every benchmark (-short skips the
# full-size matrix kernels; the full-size fits run, one step costs tens of
# milliseconds) so check catches benchmark bit-rot without paying
# measurement time.
bench-smoke:
	$(GO) test -run=NONE -bench=. -benchtime=1x -short ./...

# fuzz-smoke runs every fuzz target — the snapshot and journal decoders,
# the tenant-meta codec, the hand-rolled JSON encoder, the /v1/plan query
# parser and the /v1/observe handler — for 10 s each: the regression
# corpus plus a few seconds of fresh mutation. One -fuzz pattern per
# invocation, because go test rejects several fuzz targets at once.
fuzz-smoke:
	$(GO) test -run=NONE -fuzz='^FuzzDecodeSnapshot$$' -fuzztime=10s ./internal/persist
	$(GO) test -run=NONE -fuzz='^FuzzScanJournal$$' -fuzztime=10s ./internal/persist
	$(GO) test -run=NONE -fuzz='^FuzzUnpackTenantMeta$$' -fuzztime=10s ./internal/service
	$(GO) test -run=NONE -fuzz='^FuzzAppendJSON$$' -fuzztime=10s ./internal/service
	$(GO) test -run=NONE -fuzz='^FuzzPlanQuery$$' -fuzztime=10s ./internal/service
	$(GO) test -run=NONE -fuzz='^FuzzObserveBody$$' -fuzztime=10s ./internal/service

# faults runs the robustness sweep (ext-faults) on the small space.
faults:
	$(GO) run ./cmd/leo-experiments -experiment ext-faults
