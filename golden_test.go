package leo_test

import (
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// The golden gates: leo-experiments' small-size render and the
// runtime's fault-free kmeans energies are bit-identity contracts, so a
// change that moves a printed digit fails here instead of in a hand diff.

var (
	updateGolden = flag.Bool("update", false, "rewrite the golden render a test checks from the current leo-experiments output")
	fullGolden   = flag.Bool("full", false, "also run TestExperimentsGoldenFull, the paper-size render (about 15 s)")
)

// completedLine matches the per-experiment wall-clock trailer.
var completedLine = regexp.MustCompile(`^\[\S+ completed in \S+ on the \S+ space\]$`)

// maskTimings replaces every line whose text follows the wall clock with a
// fixed marker: the "completed in" trailers and the §6.7 overhead table
// between its title and its "(paper: ...)" footnote — the header and rule
// included, because their column widths follow the timing strings.
func maskTimings(out string) []string {
	lines := strings.Split(out, "\n")
	inOverhead := false
	for i, l := range lines {
		switch {
		case completedLine.MatchString(l):
			lines[i] = "[completed in <masked>]"
		case strings.HasPrefix(l, "overhead (§6.7)"):
			inOverhead = true
		case inOverhead && strings.HasPrefix(l, "(paper:"):
			inOverhead = false
		case inOverhead:
			lines[i] = "<masked §6.7 timing row>"
		}
	}
	return lines
}

// TestExperimentsGolden runs the real leo-experiments binary exactly as
// results_small.txt was recorded and requires every line to match, timing
// lines masked. go test -run TestExperimentsGolden -update . rewrites the
// file; every changed line then needs an explanation in CHANGES.md.
func TestExperimentsGolden(t *testing.T) {
	checkGolden(t, "results_small.txt", "-experiment", "all", "-size", "small", "-trials", "3")
}

// TestExperimentsGoldenFull is TestExperimentsGolden at the paper's
// n = 1024, where cold fits build their data-subspace frames and frozen
// refits run on them: the render of -experiment all -size full at default
// flags, diffed against results_full.txt. It runs only with -full
// (make check-full); -full -update rewrites the file.
func TestExperimentsGoldenFull(t *testing.T) {
	if !*fullGolden {
		t.Skip("paper-size render; run with -full (make check-full)")
	}
	checkGolden(t, "results_full.txt", "-experiment", "all", "-size", "full")
}

// checkGolden builds leo-experiments, runs it with args and diffs its output
// against the golden file, timing lines masked; -update rewrites the file.
func checkGolden(t *testing.T, golden string, args ...string) {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "leo-experiments")
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/leo-experiments").CombinedOutput(); err != nil {
		t.Fatalf("building leo-experiments: %v\n%s", err, out)
	}
	got, err := exec.Command(bin, args...).Output()
	if err != nil {
		t.Fatalf("leo-experiments %v: %v", args, err)
	}
	if *updateGolden {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", golden)
		return
	}
	wantRaw, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	g, w := maskTimings(string(got)), maskTimings(string(wantRaw))
	bad := 0
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			t.Errorf("%s:%d:\n got  %q\n want %q", golden, i+1, gl, wl)
			if bad++; bad == 20 {
				t.Fatalf("stopping after %d differing lines", bad)
			}
		}
	}
}

// TestRuntimeKmeansEnergies pins the five policies' energies that
// leo-runtime -app kmeans prints at its default flags.
func TestRuntimeKmeansEnergies(t *testing.T) {
	out, err := exec.Command(runtimeBin(t), "-app", "kmeans").Output()
	if err != nil {
		t.Fatalf("leo-runtime -app kmeans: %v", err)
	}
	want := map[string]string{
		"Optimal":    "1185.2",
		"LEO":        "1205.6",
		"Online":     "1444.6",
		"Offline":    "1205.6",
		"RaceToIdle": "2469.7",
	}
	energy := regexp.MustCompile(`^(\S+)\s+energy=\s*(\S+) J`)
	got := map[string]string{}
	for _, l := range strings.Split(string(out), "\n") {
		if m := energy.FindStringSubmatch(l); m != nil {
			got[m[1]] = m[2]
		}
	}
	if len(got) != len(want) {
		t.Fatalf("parsed %d policy lines, want %d:\n%s", len(got), len(want), out)
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s energy = %s J, want %s J", name, got[name], w)
		}
	}
}
