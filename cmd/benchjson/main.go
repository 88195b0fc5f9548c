// Command benchjson converts `go test -bench` output on stdin into a JSON
// perf record, so future PRs can diff benchmark trajectories instead of
// eyeballing terminal scrollback.
//
// Usage:
//
//	go test -run=NONE -bench=... -benchmem ./... | benchjson -out BENCH_em.json
//
// The record keeps every parsed benchmark (ns/op, B/op, allocs/op and any
// custom ReportMetric columns) plus a headline block with the numbers the
// perf work tracks across PRs: the full-size EM fit, the full-size Cholesky
// factorization, the steady-state E-step allocation count, the warm refit
// pair, and one steady-state warm window at the paper's n = 1024.
//
// With -merge, benchjson instead reads the existing record at -out and adds
// (or replaces) one multi-worker column keyed by -matrix-workers: the
// parallel-kernel timings re-measured with the pool capped at that width.
// The base record — headline, benchmark list, environment — is left alone,
// so the sweep composes with a prior single-core run:
//
//	GOMAXPROCS=4 go test -run=NONE -bench=... -benchmem ./internal/matrix \
//	    -args -matrix-workers=4 | benchjson -merge -matrix-workers 4
//
// With -merge -service, the stdin run is the estimation-service throughput
// benchmark instead, and its custom metrics become the record's service
// column — fleet windows refit per second and the 99th-percentile plan
// latency:
//
//	go test -run=NONE -bench=BenchmarkServiceThroughput ./internal/service \
//	    | benchjson -merge -service
//
// With -merge -cluster, the stdin run is the cluster coordinator benchmark,
// and its custom metrics become the record's cluster column — node-epochs
// simulated per second, the cap-violation rate, and energy per heartbeat:
//
//	go test -run=NONE -bench=BenchmarkClusterEpoch ./internal/cluster \
//	    | benchjson -merge -cluster
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"runtime"
	"strconv"
	"strings"
)

// benchLine matches one benchmark result row, e.g.
// "BenchmarkCholesky1024-8    3    14663837 ns/op    0 B/op    0 allocs/op".
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+([0-9.]+) ns/op(.*)$`)

// metricField matches trailing "<value> <unit>" pairs after ns/op.
var metricField = regexp.MustCompile(`([0-9.]+) (\S+)`)

type result struct {
	Name        string             `json:"name"`
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  *float64           `json:"bytes_per_op,omitempty"`
	AllocsPerOp *float64           `json:"allocs_per_op,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

type record struct {
	GoOS   string `json:"goos"`
	GoArch string `json:"goarch"`
	// NumCPU is the CPU count visible to the measuring process — capped by
	// the container/affinity mask, so it is what the single-core numbers ran
	// on. CPUsPresent is the machine's physical CPU count from
	// /sys/devices/system/cpu/present (falling back to NumCPU off Linux):
	// in a pinned container the two diverge, and the multi-worker column is
	// only meaningful relative to the former... the present count says how
	// wide the sweep could scale on this machine's actual silicon.
	NumCPU      int `json:"num_cpu"`
	CPUsPresent int `json:"cpus_present"`
	// GoMaxProcs is the scheduler width the run was measured under
	// (benchjson inherits the same GOMAXPROCS environment as the piped
	// `go test` run). The perf-tracked numbers are recorded at
	// GOMAXPROCS=1 so trajectories compare single-core work, not fan-out.
	GoMaxProcs int `json:"gomaxprocs"`
	// MatrixWorkers echoes the matrix-kernel worker cap the run used
	// (-matrix-workers; 0 = uncapped, all of GOMAXPROCS).
	MatrixWorkers int                `json:"matrix_workers"`
	Headline      map[string]float64 `json:"headline"`
	// MultiWorker holds one column per -merge run, keyed by the worker cap
	// ("2", "4", "8"): the parallel-kernel ms/op re-measured with the pool
	// at that width and GOMAXPROCS raised to match. Results are bit-identical
	// at any width (the kernels' determinism contract); only the wall clock
	// moves. Values are the kernel timings (float64); when the machine has
	// fewer CPUs present than the worker cap, the column additionally carries
	// "cpus_present_insufficient": true — the timings are then pure scheduler
	// noise (w goroutines interleaved on < w CPUs) and trajectory tooling
	// must not diff them.
	MultiWorker map[string]map[string]any `json:"multi_worker,omitempty"`
	// Service is the estimation-server throughput column (-merge -service):
	// sessions_per_sec (tenant-windows refit per wall-clock second),
	// p99_plan_ms (client-observed 99th-percentile plan latency), and
	// plans_per_sec (plan queries answered per wall-clock second) from
	// BenchmarkServiceThroughput.
	Service map[string]float64 `json:"service,omitempty"`
	// Cluster is the cluster-coordinator throughput column (-merge -cluster):
	// node_epochs_per_sec (simulated node-epochs per wall-clock second),
	// cap_violations_per_epoch (global-cap violation rate of the benchmark
	// scenario), and j_per_beat (energy per completed heartbeat) from
	// BenchmarkClusterEpoch.
	Cluster    map[string]float64 `json:"cluster,omitempty"`
	Benchmarks []result           `json:"benchmarks"`
}

// headlineKeys maps benchmark names to the headline metric they feed.
var headlineKeys = map[string]struct{ key, field string }{
	"BenchmarkEMFitLarge":              {"em_fit_large_ms", "ns"},
	"BenchmarkLEOOverheadFull":         {"leo_overhead_full_ms", "ns"},
	"BenchmarkCholesky1024":            {"cholesky_1024_ms", "ns"},
	"BenchmarkCholeskyInverseInto1024": {"cholesky_inverse_1024_ms", "ns"},
	"BenchmarkSyrkWoodbury1024x25":     {"syrk_woodbury_1024_ms", "ns"},
	"BenchmarkEStepOnly":               {"estep_allocs_per_op", "allocs"},
	"BenchmarkMultiWindowCold":         {"multi_window_cold_ms", "ns"},
	"BenchmarkMultiWindowWarm":         {"multi_window_warm_ms", "ns"},
	"BenchmarkMultiWindowWarmLarge":    {"multi_window_warm_large_ms", "ns"},
	"BenchmarkWarmRefitAppend":         {"warm_refit_append_ms", "ns"},
}

// headline picks the headline metrics out of a parsed run: milliseconds per
// op, or allocations per op, keyed as headlineKeys says.
func headline(results []result) map[string]float64 {
	out := map[string]float64{}
	for _, r := range results {
		h, ok := headlineKeys[r.Name]
		if !ok {
			continue
		}
		switch h.field {
		case "ns":
			out[h.key] = r.NsPerOp / 1e6
		case "allocs":
			if r.AllocsPerOp != nil {
				out[h.key] = *r.AllocsPerOp
			}
		}
	}
	return out
}

// workerKeys names the parallel kernels the multi-worker sweep re-measures.
var workerKeys = map[string]string{
	"BenchmarkCholesky1024":            "cholesky_1024_ms",
	"BenchmarkCholeskyInverseInto1024": "cholesky_inverse_1024_ms",
	"BenchmarkSyrkWoodbury1024x25":     "syrk_woodbury_1024_ms",
	"BenchmarkMul512Parallel":          "mul_512_ms",
}

// serviceKeys maps BenchmarkServiceThroughput's ReportMetric units to the
// service-column fields they feed.
var serviceKeys = map[string]string{
	"sessions/s":  "sessions_per_sec",
	"p99-plan-ms": "p99_plan_ms",
	"plans/s":     "plans_per_sec",
}

// serviceColumn extracts the service column from a parsed run, or errors if
// the throughput benchmark (or its custom metrics) is missing.
func serviceColumn(results []result) (map[string]float64, error) {
	for _, r := range results {
		if r.Name != "BenchmarkServiceThroughput" {
			continue
		}
		col := map[string]float64{}
		for unit, key := range serviceKeys {
			v, ok := r.Metrics[unit]
			if !ok {
				return nil, fmt.Errorf("BenchmarkServiceThroughput reported no %q metric", unit)
			}
			col[key] = v
		}
		return col, nil
	}
	return nil, fmt.Errorf("no BenchmarkServiceThroughput row on stdin (%d benchmarks parsed)", len(results))
}

// clusterKeys maps BenchmarkClusterEpoch's ReportMetric units to the
// cluster-column fields they feed. j_per_beat is optional: a scenario that
// completes no work reports no J/beat, which is still a valid run.
var clusterKeys = []struct {
	unit, key string
	required  bool
}{
	{"node-epochs/s", "node_epochs_per_sec", true},
	{"cap-violations/epoch", "cap_violations_per_epoch", true},
	{"J/beat", "j_per_beat", false},
}

// clusterColumn extracts the cluster column from a parsed run, or errors if
// the coordinator benchmark (or a required metric) is missing.
func clusterColumn(results []result) (map[string]float64, error) {
	for _, r := range results {
		if r.Name != "BenchmarkClusterEpoch" {
			continue
		}
		col := map[string]float64{}
		for _, k := range clusterKeys {
			v, ok := r.Metrics[k.unit]
			if !ok {
				if k.required {
					return nil, fmt.Errorf("BenchmarkClusterEpoch reported no %q metric", k.unit)
				}
				continue
			}
			col[k.key] = v
		}
		return col, nil
	}
	return nil, fmt.Errorf("no BenchmarkClusterEpoch row on stdin (%d benchmarks parsed)", len(results))
}

// workerColumn extracts the multi-worker column from a parsed run, or errors
// if none of the sweep kernels are present. A sweep wider than the machine's
// present CPU count measures scheduler interleaving, not parallel speedup, so
// such columns are annotated "cpus_present_insufficient": true for trajectory
// tooling to exclude.
func workerColumn(results []result, workers, present int) (map[string]any, error) {
	col := map[string]any{}
	for _, r := range results {
		if key, ok := workerKeys[r.Name]; ok {
			col[key] = r.NsPerOp / 1e6
		}
	}
	if len(col) == 0 {
		return nil, fmt.Errorf("no multi-worker kernels (%d benchmarks parsed, none in the sweep set)", len(results))
	}
	if present > 0 && present < workers {
		col["cpus_present_insufficient"] = true
	}
	return col, nil
}

func main() {
	out := flag.String("out", "BENCH_em.json", "output path for the JSON record")
	matrixWorkers := flag.Int("matrix-workers", 0,
		"matrix-kernel worker cap the benchmarked run used (0 = uncapped), echoed into the record")
	merge := flag.Bool("merge", false,
		"merge stdin into the existing record at -out as the multi-worker column keyed by -matrix-workers")
	service := flag.Bool("service", false,
		"with -merge: stdin is the service throughput benchmark; merge it as the record's service column")
	clusterFlag := flag.Bool("cluster", false,
		"with -merge: stdin is the cluster coordinator benchmark; merge it as the record's cluster column")
	flag.Parse()
	if *service && !*merge {
		fatal(fmt.Errorf("-service requires -merge (the service column composes with an existing base record)"))
	}
	if *clusterFlag && !*merge {
		fatal(fmt.Errorf("-cluster requires -merge (the cluster column composes with an existing base record)"))
	}
	if *clusterFlag && *service {
		fatal(fmt.Errorf("-cluster and -service are mutually exclusive (one merged column per run)"))
	}

	results, err := parseBench(os.Stdin)
	if err != nil {
		fatal(err)
	}
	if len(results) == 0 {
		fatal(fmt.Errorf("no benchmark lines found on stdin"))
	}

	var rec record
	if *merge {
		data, err := os.ReadFile(*out)
		if err != nil {
			fatal(fmt.Errorf("-merge needs an existing base record (run the single-core bench first): %w", err))
		}
		if err := json.Unmarshal(data, &rec); err != nil {
			fatal(fmt.Errorf("parsing existing %s: %w", *out, err))
		}
		switch {
		case *service:
			col, err := serviceColumn(results)
			if err != nil {
				fatal(err)
			}
			rec.Service = col
		case *clusterFlag:
			col, err := clusterColumn(results)
			if err != nil {
				fatal(err)
			}
			rec.Cluster = col
		default:
			col, err := workerColumn(results, *matrixWorkers, cpusPresent())
			if err != nil {
				fatal(err)
			}
			if rec.MultiWorker == nil {
				rec.MultiWorker = map[string]map[string]any{}
			}
			rec.MultiWorker[strconv.Itoa(*matrixWorkers)] = col
		}
	} else {
		rec = record{
			GoOS:          runtime.GOOS,
			GoArch:        runtime.GOARCH,
			NumCPU:        runtime.NumCPU(),
			CPUsPresent:   cpusPresent(),
			GoMaxProcs:    runtime.GOMAXPROCS(0),
			MatrixWorkers: *matrixWorkers,
			Headline:      headline(results),
			Benchmarks:    results,
		}
	}

	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "benchjson: wrote %d benchmarks to %s\n", len(results), *out)
}

// parseBench scans `go test -bench` output, echoing every line to stdout for
// the terminal log and collecting the parsed rows.
func parseBench(f *os.File) ([]result, error) {
	var results []result
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		fmt.Println(line)
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		iters, _ := strconv.ParseInt(m[2], 10, 64)
		ns, _ := strconv.ParseFloat(m[3], 64)
		r := result{Name: m[1], Iterations: iters, NsPerOp: ns}
		for _, f := range metricField.FindAllStringSubmatch(m[4], -1) {
			v, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				continue
			}
			switch f[2] {
			case "B/op":
				r.BytesPerOp = &v
			case "allocs/op":
				r.AllocsPerOp = &v
			default:
				if r.Metrics == nil {
					r.Metrics = map[string]float64{}
				}
				r.Metrics[f[2]] = v
			}
		}
		results = append(results, r)
	}
	return results, sc.Err()
}

// cpusPresent counts the CPUs present on the machine from the kernel's
// "0-7" / "0,2-5" range list, independent of this process's affinity mask.
func cpusPresent() int {
	data, err := os.ReadFile("/sys/devices/system/cpu/present")
	if err != nil {
		return runtime.NumCPU()
	}
	total := 0
	for _, part := range strings.Split(strings.TrimSpace(string(data)), ",") {
		if part == "" {
			continue
		}
		lo, hi, ranged := strings.Cut(part, "-")
		a, err := strconv.Atoi(strings.TrimSpace(lo))
		if err != nil {
			return runtime.NumCPU()
		}
		if !ranged {
			total++
			continue
		}
		b, err := strconv.Atoi(strings.TrimSpace(hi))
		if err != nil || b < a {
			return runtime.NumCPU()
		}
		total += b - a + 1
	}
	if total == 0 {
		return runtime.NumCPU()
	}
	return total
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchjson:", err)
	os.Exit(1)
}
