// Command perfbench is the repository's benchmark. It drives the LEO
// estimation stack through the same public constructors `leo-runtime -serve`
// and the controller use, checks that what it was served is correct, and
// prints every end-to-end metric (or, with --trace 1, every per-layer
// metric) as the last line of its output:
//
//	bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Workloads (README.md gives the metric definitions per workload):
//
//   - serve-plan-heavy: long-lived tenants, 8 quantized plans per window,
//     no state directory. Mostly HTTP, shard dispatch and the plan cache.
//   - serve-admission-churn: short-lived tenants arriving all run long, one
//     continuous-demand plan per window, a journaled state directory. Mostly
//     admission, seed transfer, FitBatch, journal appends and plan misses.
//   - calibrate-paper: in-process cold LEO fits on the 1024-configuration
//     paper space, planned and executed against an Optimal controller.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// options are one run's command-line settings.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	out      string // directory for span dumps and scratch state
}

// metricValue is one reported number with its unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet maps metric names to values; encoding/json sorts the keys.
type metricSet map[string]metricValue

func (m metricSet) add(name string, v float64, unit string) {
	m[name] = metricValue{Value: v, Unit: unit}
}

// result is what one workload run hands back to main.
type result struct {
	attempted, failed int64
	e2e               metricSet
	layers            metricSet
}

// workload runs one named workload.
type workload func(ctx context.Context, o options) (*result, error)

var workloads = map[string]workload{
	"serve-plan-heavy":      func(ctx context.Context, o options) (*result, error) { return runServe(ctx, o, planHeavy) },
	"serve-admission-churn": func(ctx context.Context, o options) (*result, error) { return runServe(ctx, o, admissionChurn) },
	"calibrate-paper":       runCalibrate,
}

// heldOutSeeds are seeds kept out of tuning: a later change that claims a
// gain confirms it on these after measuring on its own seeds.
var heldOutSeeds = map[string]int64{
	"serve-plan-heavy":      9001,
	"serve-admission-churn": 9002,
	"calibrate-paper":       9003,
}

// errCheck marks a failed correctness check: the run prints no numbers.
type errCheck struct{ msg string }

func (e *errCheck) Error() string { return "correctness check failed: " + e.msg }

func checkFailed(format string, args ...any) error {
	return &errCheck{msg: fmt.Sprintf(format, args...)}
}

func main() { os.Exit(run()) }

func run() int {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload name")
	flag.Int64Var(&o.seed, "seed", 1, "input seed")
	flag.Float64Var(&o.seconds, "seconds", 20, "measured seconds per run")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced variant and reports per-layer metrics")
	flag.StringVar(&o.out, "out", ".bench_build", "directory for span dumps and scratch state")
	flag.Parse()
	wl, ok := workloads[o.workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (have serve-plan-heavy, serve-admission-churn, calibrate-paper)\n", o.workload)
		return 2
	}
	if trace != 0 && trace != 1 {
		fmt.Fprintf(os.Stderr, "perfbench: --trace must be 0 or 1, got %d\n", trace)
		return 2
	}
	if !(o.seconds > 0) {
		fmt.Fprintf(os.Stderr, "perfbench: --seconds must be positive\n")
		return 2
	}
	o.trace = trace == 1
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}

	// Marshal cannot fail on plain numbers and strings.
	facts, _ := json.Marshal(map[string]any{
		"workload": o.workload, "seed": o.seed, "seconds": o.seconds, "trace": o.trace,
		"held_out_seed": heldOutSeeds[o.workload],
		"nproc":         runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"cpus_present": cpusPresent(), "go": runtime.Version(),
	})
	fmt.Printf("facts %s\n", facts)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	start := time.Now()
	res, err := wl(ctx, o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		var ce *errCheck
		if errors.As(err, &ce) {
			line, _ := json.Marshal(map[string]any{"correct": false, "attempted": 0, "failed": 0, "metrics": map[string]any{}})
			fmt.Println(string(line))
		}
		return 1
	}
	if err := checkEndToEnd(res.e2e); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	metrics := res.e2e
	if o.trace {
		metrics = res.layers
	}
	for name, v := range metrics {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			fmt.Fprintf(os.Stderr, "perfbench: metric %s is %v (no samples)\n", name, v.Value)
			return 1
		}
	}
	fmt.Printf("run wall %.1fs\n", time.Since(start).Seconds())
	line, err := json.Marshal(map[string]any{
		"correct": true, "attempted": res.attempted, "failed": res.failed, "metrics": metrics,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// cpusPresent counts the CPUs the kernel reports present (which can exceed
// the CPUs this process may run on); -1 when unknown.
func cpusPresent() int {
	b, err := os.ReadFile("/sys/devices/system/cpu/present")
	if err != nil {
		return -1
	}
	n := 0
	for _, part := range strings.Split(strings.TrimSpace(string(b)), ",") {
		lo, hi, isRange := strings.Cut(part, "-")
		a, err := strconv.Atoi(lo)
		if err != nil {
			return -1
		}
		b := a
		if isRange {
			if b, err = strconv.Atoi(hi); err != nil {
				return -1
			}
		}
		n += b - a + 1
	}
	return n
}

// scratchDir makes a fresh directory under parent.
func scratchDir(parent, name string) (string, error) {
	dir := filepath.Join(parent, fmt.Sprintf("%s-%d-%d", name, os.Getpid(), time.Now().UnixNano()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("creating scratch directory: %w", err)
	}
	return dir, nil
}
