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
// pair, one steady-state warm window at the paper's n = 1024, and one
// planner build plus plan over the paper space.
//
// With -merge, benchjson instead reads the existing record at -out and folds
// the stdin rows into its benchmark list by name: a row replaces the record's
// row of the same name, and a row with a new name is appended. The headline
// is recomputed from the merged list; the environment is left alone. So the
// service and cluster benchmarks, which report their throughput as custom
// metrics, compose with the base run:
//
//	go test -run=NONE -bench=BenchmarkServiceThroughput ./internal/service \
//	    | benchjson -merge
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
	// the container/affinity mask, so it is what the numbers ran on.
	// CPUsPresent is the machine's physical CPU count from
	// /sys/devices/system/cpu/present (falling back to NumCPU off Linux):
	// in a pinned container the two diverge.
	NumCPU      int `json:"num_cpu"`
	CPUsPresent int `json:"cpus_present"`
	// GoMaxProcs is the scheduler width the run was measured under
	// (benchjson inherits the same GOMAXPROCS environment as the piped
	// `go test` run). `make bench` pins none, so it reads the CPUs the
	// process may use.
	GoMaxProcs int                `json:"gomaxprocs"`
	Headline   map[string]float64 `json:"headline"`
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
	"BenchmarkFirstFrozenRefitLarge":   {"first_frozen_refit_large_ms", "ns"},
	"BenchmarkColdCalibrateLarge":      {"cold_calibrate_large_ms", "ns"},
	"BenchmarkPlannerPaper":            {"planner_paper_ms", "ns"},
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

// mergeRows folds rows into base by name: a row replaces the base row of
// the same name, and a row with a new name is appended.
func mergeRows(base, rows []result) []result {
	at := make(map[string]int, len(base))
	for i, r := range base {
		at[r.Name] = i
	}
	for _, r := range rows {
		if i, ok := at[r.Name]; ok {
			base[i] = r
			continue
		}
		at[r.Name] = len(base)
		base = append(base, r)
	}
	return base
}

func main() {
	out := flag.String("out", "BENCH_em.json", "output path for the JSON record")
	merge := flag.Bool("merge", false,
		"fold stdin's rows into the existing record at -out by benchmark name")
	flag.Parse()

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
			fatal(fmt.Errorf("-merge needs an existing base record (run the base bench first): %w", err))
		}
		if err := json.Unmarshal(data, &rec); err != nil {
			fatal(fmt.Errorf("parsing existing %s: %w", *out, err))
		}
		rec.Benchmarks = mergeRows(rec.Benchmarks, results)
		rec.Headline = headline(rec.Benchmarks)
	} else {
		rec = record{
			GoOS:        runtime.GOOS,
			GoArch:      runtime.GOARCH,
			NumCPU:      runtime.NumCPU(),
			CPUsPresent: cpusPresent(),
			GoMaxProcs:  runtime.GOMAXPROCS(0),
			Headline:    headline(results),
			Benchmarks:  results,
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
