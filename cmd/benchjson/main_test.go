package main

import (
	"os"
	"path/filepath"
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

// Headline fixture: the small and paper-size warm windows share a name
// prefix and must land on separate headline keys; the planner row comes
// from the root package's run.
const coreBenchOutput = `goos: linux
pkg: leo
BenchmarkPlannerPaper-2           	   13044	     85890 ns/op	   27584 B/op	       3 allocs/op
pkg: leo/internal/core
BenchmarkMultiWindowWarm-2        	    3000	    412345 ns/op	    2200 B/op	       9 allocs/op
BenchmarkMultiWindowWarmLarge-2   	     200	   5123456 ns/op	   17000 B/op	       9 allocs/op
BenchmarkFirstFrozenRefitLarge-2  	     300	   3750000 ns/op	  273000 B/op	      35 allocs/op
BenchmarkColdCalibrateLarge-2     	     150	   8000000 ns/op	 1643000 B/op	     233 allocs/op
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

// mergedRow merges run into the base run, as make bench does, and returns
// the row named name from the merged list.
func mergedRow(t *testing.T, run, name string) result {
	t.Helper()
	base := parseFixture(t, coreBenchOutput)
	merged := mergeRows(base, parseFixture(t, run))
	if got, want := len(merged), 7; got != want {
		t.Fatalf("merged %d rows, want %d", got, want)
	}
	for _, r := range merged {
		if r.Name == name {
			return r
		}
	}
	t.Fatalf("%s missing from the merged rows", name)
	return result{}
}

// TestServiceColumn checks the service run's throughput metrics, once a
// column of their own, land in the service row of the merged record.
func TestServiceColumn(t *testing.T) {
	r := mergedRow(t, serviceBenchOutput, "BenchmarkServiceThroughput")
	want := map[string]float64{"sessions/s": 482.25, "p99-plan-ms": 12.50, "plans/s": 3858}
	for unit, v := range want {
		if got := r.Metrics[unit]; got != v {
			t.Errorf("%s = %v, want %v", unit, got, v)
		}
	}
	if len(r.Metrics) != len(want) {
		t.Errorf("service row has %d metrics, want %d: %v", len(r.Metrics), len(want), r.Metrics)
	}
}

// TestClusterColumn checks the coordinator run's metrics, J/beat included,
// land in the cluster row of the merged record.
func TestClusterColumn(t *testing.T) {
	r := mergedRow(t, clusterBenchOutput, "BenchmarkClusterEpoch")
	want := map[string]float64{"node-epochs/s": 8578, "cap-violations/epoch": 0.1250, "J/beat": 10.49}
	for unit, v := range want {
		if got := r.Metrics[unit]; got != v {
			t.Errorf("%s = %v, want %v", unit, got, v)
		}
	}
	if len(r.Metrics) != len(want) {
		t.Errorf("cluster row has %d metrics, want %d: %v", len(r.Metrics), len(want), r.Metrics)
	}
}

// TestMergeFoldsRowsByName folds the service and cluster runs and a
// re-measured base row into a base run: new names are appended in order,
// and the re-measured row replaces its namesake in place.
func TestMergeFoldsRowsByName(t *testing.T) {
	merged := parseFixture(t, coreBenchOutput)
	for _, run := range []string{
		serviceBenchOutput,
		clusterBenchOutput,
		"BenchmarkEStepOnly-2 700 1500000 ns/op 0 B/op 0 allocs/op\nPASS\n",
	} {
		merged = mergeRows(merged, parseFixture(t, run))
	}

	want := []string{
		"BenchmarkPlannerPaper", "BenchmarkMultiWindowWarm", "BenchmarkMultiWindowWarmLarge",
		"BenchmarkFirstFrozenRefitLarge", "BenchmarkColdCalibrateLarge", "BenchmarkEStepOnly",
		"BenchmarkServiceThroughput", "BenchmarkClusterEpoch",
	}
	if len(merged) != len(want) {
		t.Fatalf("merged %d rows, want %d", len(merged), len(want))
	}
	for i, name := range want {
		if merged[i].Name != name {
			t.Errorf("row %d is %s, want %s", i, merged[i].Name, name)
		}
	}
	if r := merged[5]; r.NsPerOp != 1500000 {
		t.Errorf("BenchmarkEStepOnly at %v ns/op, want the re-measured 1500000", r.NsPerOp)
	}
}

func TestHeadline(t *testing.T) {
	h := headline(parseFixture(t, coreBenchOutput))
	want := map[string]float64{
		"multi_window_warm_ms":        0.412345,
		"multi_window_warm_large_ms":  5.123456,
		"first_frozen_refit_large_ms": 3.75,
		"cold_calibrate_large_ms":     8,
		"estep_allocs_per_op":         0,
		"planner_paper_ms":            0.08589,
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
