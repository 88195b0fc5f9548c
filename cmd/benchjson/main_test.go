package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// fixture bench output: one service-throughput row with both custom metrics,
// in the exact shape `go test -bench` prints (name-GOMAXPROCS, iterations,
// ns/op, then "<value> <unit>" metric pairs).
const serviceBenchOutput = `goos: linux
goarch: amd64
pkg: leo/internal/service
BenchmarkServiceThroughput-8 	       5	 212345678 ns/op	        12.50 p99-plan-ms	      3858 plans/s	       482.25 sessions/s
PASS
ok  	leo/internal/service	2.5s
`

// Cluster coordinator bench fixture: the three custom metrics
// BenchmarkClusterEpoch reports, J/beat included.
const clusterBenchOutput = `goos: linux
goarch: amd64
pkg: leo/internal/cluster
BenchmarkClusterEpoch-8 	       9	 123456789 ns/op	         0.1250 cap-violations/epoch	        10.49 J/beat	      8578 node-epochs/s
PASS
ok  	leo/internal/cluster	1.8s
`

const kernelBenchOutput = `goos: linux
BenchmarkCholesky1024-4    	       3	 14663837 ns/op	       0 B/op	       0 allocs/op
BenchmarkMul512Parallel-4  	      10	  5000000 ns/op
PASS
`

// Core bench fixture: the small and paper-size warm windows share a name
// prefix and must land on separate headline keys.
const coreBenchOutput = `goos: linux
pkg: leo/internal/core
BenchmarkMultiWindowWarm-2        	    3000	    412345 ns/op	    2200 B/op	       9 allocs/op
BenchmarkMultiWindowWarmLarge-2   	     200	   5123456 ns/op	   17000 B/op	       9 allocs/op
BenchmarkEStepOnly-2              	     500	   2000000 ns/op	       0 B/op	       0 allocs/op
PASS
`

func parseFixture(t *testing.T, out string) []result {
	t.Helper()
	tmp := filepath.Join(t.TempDir(), "bench.txt")
	if err := os.WriteFile(tmp, []byte(out), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(tmp)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	results, err := parseBench(f)
	if err != nil {
		t.Fatal(err)
	}
	return results
}

func TestServiceColumn(t *testing.T) {
	results := parseFixture(t, serviceBenchOutput)
	if len(results) != 1 {
		t.Fatalf("parsed %d benchmarks, want 1", len(results))
	}
	col, err := serviceColumn(results)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := col["sessions_per_sec"], 482.25; got != want {
		t.Errorf("sessions_per_sec = %v, want %v", got, want)
	}
	if got, want := col["p99_plan_ms"], 12.50; got != want {
		t.Errorf("p99_plan_ms = %v, want %v", got, want)
	}
	if got, want := col["plans_per_sec"], 3858.0; got != want {
		t.Errorf("plans_per_sec = %v, want %v", got, want)
	}
	if len(col) != 3 {
		t.Errorf("service column has %d fields, want 3: %v", len(col), col)
	}
}

func TestServiceColumnRejectsWrongRun(t *testing.T) {
	// A kernel run piped through -service by mistake must fail loudly, not
	// write an empty column.
	results := parseFixture(t, kernelBenchOutput)
	if _, err := serviceColumn(results); err == nil {
		t.Fatal("serviceColumn accepted a run without BenchmarkServiceThroughput")
	} else if !strings.Contains(err.Error(), "BenchmarkServiceThroughput") {
		t.Errorf("error %q does not name the missing benchmark", err)
	}

	// And a throughput row missing its metrics (e.g. a -benchtime=1x run
	// that errored before ReportMetric) is equally loud.
	partial := parseFixture(t, "BenchmarkServiceThroughput-8 1 1000 ns/op\nPASS\n")
	if _, err := serviceColumn(partial); err == nil {
		t.Fatal("serviceColumn accepted a row without the custom metrics")
	}
}

func TestClusterColumn(t *testing.T) {
	results := parseFixture(t, clusterBenchOutput)
	col, err := clusterColumn(results)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := col["node_epochs_per_sec"], 8578.0; got != want {
		t.Errorf("node_epochs_per_sec = %v, want %v", got, want)
	}
	if got, want := col["cap_violations_per_epoch"], 0.1250; got != want {
		t.Errorf("cap_violations_per_epoch = %v, want %v", got, want)
	}
	if got, want := col["j_per_beat"], 10.49; got != want {
		t.Errorf("j_per_beat = %v, want %v", got, want)
	}
}

func TestClusterColumnRejectsWrongRun(t *testing.T) {
	// A kernel run piped through -cluster by mistake must fail loudly.
	if _, err := clusterColumn(parseFixture(t, kernelBenchOutput)); err == nil {
		t.Fatal("clusterColumn accepted a run without BenchmarkClusterEpoch")
	} else if !strings.Contains(err.Error(), "BenchmarkClusterEpoch") {
		t.Errorf("error %q does not name the missing benchmark", err)
	}

	// A coordinator row missing its required metrics is equally loud.
	partial := parseFixture(t, "BenchmarkClusterEpoch-8 1 1000 ns/op\nPASS\n")
	if _, err := clusterColumn(partial); err == nil {
		t.Fatal("clusterColumn accepted a row without the custom metrics")
	}

	// J/beat alone is optional: a no-work scenario still merges.
	noWork := parseFixture(t,
		"BenchmarkClusterEpoch-8 1 1000 ns/op	 0.00 cap-violations/epoch	 100 node-epochs/s\nPASS\n")
	col, err := clusterColumn(noWork)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := col["j_per_beat"]; ok {
		t.Error("j_per_beat present in a run that reported none")
	}
	if len(col) != 2 {
		t.Errorf("no-work column has %d fields, want 2: %v", len(col), col)
	}
}

func TestWorkerColumn(t *testing.T) {
	results := parseFixture(t, kernelBenchOutput)
	col, err := workerColumn(results, 4, 8)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := col["cholesky_1024_ms"], 14663837.0/1e6; got != want {
		t.Errorf("cholesky_1024_ms = %v, want %v", got, want)
	}
	if got, want := col["mul_512_ms"], 5.0; got != want {
		t.Errorf("mul_512_ms = %v, want %v", got, want)
	}
	if _, ok := col["cpus_present_insufficient"]; ok {
		t.Error("column annotated insufficient on a machine wide enough for the sweep")
	}
	// The service run has no sweep kernels; merging it as a worker column
	// must fail rather than silently dropping the sweep.
	if _, err := workerColumn(parseFixture(t, serviceBenchOutput), 4, 8); err == nil {
		t.Fatal("workerColumn accepted a run with no sweep kernels")
	}
}

func TestWorkerColumnAnnotatesNarrowMachine(t *testing.T) {
	// A 4-worker sweep measured on a 1-CPU machine is scheduler noise: the
	// timings are still recorded (the run happened) but flagged so trajectory
	// tooling skips them.
	col, err := workerColumn(parseFixture(t, kernelBenchOutput), 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if col["cpus_present_insufficient"] != true {
		t.Errorf("4-worker column on a 1-CPU machine not annotated: %v", col)
	}
	if got, want := col["cholesky_1024_ms"], 14663837.0/1e6; got != want {
		t.Errorf("annotated column dropped the timing: cholesky_1024_ms = %v, want %v", got, want)
	}
	// present == 0 means the count could not be read; do not guess.
	col, err = workerColumn(parseFixture(t, kernelBenchOutput), 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := col["cpus_present_insufficient"]; ok {
		t.Error("column annotated insufficient with an unknown CPU count")
	}
}

func TestHeadline(t *testing.T) {
	h := headline(parseFixture(t, coreBenchOutput))
	want := map[string]float64{
		"multi_window_warm_ms":       0.412345,
		"multi_window_warm_large_ms": 5.123456,
		"estep_allocs_per_op":        0,
	}
	if len(h) != len(want) {
		t.Fatalf("headline has %d keys, want %d: %v", len(h), len(want), h)
	}
	for k, v := range want {
		if got, ok := h[k]; !ok || got != v {
			t.Errorf("%s = %v (present %v), want %v", k, got, ok, v)
		}
	}
}
