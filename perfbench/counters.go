package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"

	"leo/internal/metrics"
)

// counters is one scrape of the program's Prometheus exposition, keyed by
// series (name plus label set exactly as exposed, e.g.
// `leo_core_em_fits_total{mode="cold"}`).
type counters map[string]float64

func parseCounters(r io.Reader) (counters, error) {
	out := make(counters)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("metrics line %q has no value", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// scrape reads the server's /metrics endpoint.
func scrape(client *http.Client, base string) (counters, error) {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("scraping /metrics: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scraping /metrics: status %d", resp.StatusCode)
	}
	return parseCounters(resp.Body)
}

// scrapeLocal reads the same exposition in-process, for workloads that run
// without a server.
func scrapeLocal() (counters, error) {
	var buf bytes.Buffer
	if err := metrics.Default().WritePrometheus(&buf); err != nil {
		return nil, fmt.Errorf("reading metrics: %w", err)
	}
	return parseCounters(&buf)
}

// delta is after minus before for one series (absent counts as 0).
func delta(before, after counters, series string) float64 {
	return after[series] - before[series]
}

// matrixKernels are the kernels whose leo_matrix_<k>_ns_total and
// _calls_total counters the per-layer report breaks out.
var matrixKernels = []string{"cholesky", "inverse", "syrk", "gemm", "solve", "append"}

// addMatrix reports each kernel's time and calls between two scrapes and
// returns the total kernel time in milliseconds.
func addMatrix(m metricSet, before, after counters) float64 {
	total := 0.0
	for _, k := range matrixKernels {
		ms := delta(before, after, "leo_matrix_"+k+"_ns_total") / 1e6
		total += ms
		m.add("matrix."+k+"_ms", ms, "ms")
		m.add("matrix."+k+".calls", delta(before, after, "leo_matrix_"+k+"_calls_total"), "count")
	}
	return total
}
