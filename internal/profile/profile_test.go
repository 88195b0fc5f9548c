package profile

import (
	"bytes"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"leo/internal/apps"
	"leo/internal/platform"
	"leo/internal/stats"
)

func testDB(t *testing.T, noise float64) *Database {
	t.Helper()
	db, err := Collect(platform.Small(), apps.Suite(), noise, rand.New(rand.NewSource(42)))
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func TestCollectShapes(t *testing.T) {
	db := testDB(t, 0)
	if db.NumApps() != apps.SuiteSize {
		t.Fatalf("NumApps = %d", db.NumApps())
	}
	n := platform.Small().N()
	if db.Perf.Rows != 25 || db.Perf.Cols != n || db.Power.Cols != n {
		t.Fatalf("matrix shapes perf %dx%d power %dx%d", db.Perf.Rows, db.Perf.Cols, db.Power.Rows, db.Power.Cols)
	}
	if err := db.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestCollectNoiseless(t *testing.T) {
	db := testDB(t, 0)
	a := apps.MustByName("kmeans")
	i, err := db.AppIndex("kmeans")
	if err != nil {
		t.Fatal(err)
	}
	truth := a.PerfVector(platform.Small())
	row := db.Perf.Row(i)
	for c := range truth {
		if row[c] != truth[c] {
			t.Fatalf("noiseless collection differs at %d", c)
		}
	}
}

func TestCollectNoisy(t *testing.T) {
	noisy := testDB(t, 0.05)
	clean := testDB(t, 0)
	// Noisy values must differ but stay close (5% relative noise).
	diffs := 0
	for i, v := range noisy.Perf.Data {
		if v != clean.Perf.Data[i] {
			diffs++
		}
		rel := (v - clean.Perf.Data[i]) / clean.Perf.Data[i]
		if rel > 0.5 || rel < -0.5 {
			t.Fatalf("noise too large: relative error %g", rel)
		}
	}
	if diffs == 0 {
		t.Fatal("noise had no effect")
	}
}

func TestCollectErrors(t *testing.T) {
	if _, err := Collect(platform.Space{}, apps.Suite(), 0, nil); err == nil {
		t.Fatal("invalid space must error")
	}
	if _, err := Collect(platform.Small(), apps.Suite(), -1, nil); err == nil {
		t.Fatal("negative noise must error")
	}
	if _, err := Collect(platform.Small(), apps.Suite(), 0.1, nil); err == nil {
		t.Fatal("noise without rng must error")
	}
	bad := apps.Suite()
	bad[3].BaseRate = 0
	if _, err := Collect(platform.Small(), bad, 0, nil); err == nil {
		t.Fatal("invalid app must error")
	}
}

func TestAppIndex(t *testing.T) {
	db := testDB(t, 0)
	i, err := db.AppIndex("x264")
	if err != nil {
		t.Fatal(err)
	}
	if db.Apps[i] != "x264" {
		t.Fatalf("AppIndex points at %q", db.Apps[i])
	}
	if _, err := db.AppIndex("missing"); err == nil {
		t.Fatal("missing app must error")
	}
}

func TestLeaveOneOut(t *testing.T) {
	db := testDB(t, 0)
	target, err := db.AppIndex("kmeans")
	if err != nil {
		t.Fatal(err)
	}
	rest, perf, power, err := db.LeaveOneOut(target)
	if err != nil {
		t.Fatal(err)
	}
	if rest.NumApps() != 24 {
		t.Fatalf("rest has %d apps", rest.NumApps())
	}
	for _, a := range rest.Apps {
		if a == "kmeans" {
			t.Fatal("target still present in rest")
		}
	}
	if err := rest.Validate(); err != nil {
		t.Fatal(err)
	}
	truth := apps.MustByName("kmeans").PerfVector(platform.Small())
	for c := range truth {
		if perf[c] != truth[c] {
			t.Fatal("target perf vector wrong")
		}
	}
	if len(power) != platform.Small().N() {
		t.Fatal("target power vector wrong length")
	}
	// Ordering of remaining apps preserved.
	if rest.Apps[0] != db.Apps[0] {
		t.Fatal("leave-one-out reordered apps")
	}
}

func TestLeaveOneOutRange(t *testing.T) {
	db := testDB(t, 0)
	if _, _, _, err := db.LeaveOneOut(-1); err == nil {
		t.Fatal("negative target must error")
	}
	if _, _, _, err := db.LeaveOneOut(25); err == nil {
		t.Fatal("out-of-range target must error")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	db := testDB(t, 0.02)
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Space != db.Space || back.NumApps() != db.NumApps() {
		t.Fatal("metadata lost in round trip")
	}
	if !back.Perf.Equal(db.Perf, 0) || !back.Power.Equal(db.Power, 0) {
		t.Fatal("matrices differ after round trip")
	}
	// Application index ordering must survive: every leave-one-out split,
	// fold cache key, and saved experiment references rows by position.
	for i, name := range db.Apps {
		if back.Apps[i] != name {
			t.Fatalf("app %d renamed %q -> %q in round trip", i, name, back.Apps[i])
		}
		idx, err := back.AppIndex(name)
		if err != nil {
			t.Fatal(err)
		}
		if idx != i {
			t.Fatalf("AppIndex(%q) = %d after round trip, want %d", name, idx, i)
		}
	}
	// And a split on the loaded database must match one on the original
	// bit-for-bit (the noisy values make silent row reordering detectable).
	restA, truthA, _, err := db.LeaveOneOut(3)
	if err != nil {
		t.Fatal(err)
	}
	restB, truthB, _, err := back.LeaveOneOut(3)
	if err != nil {
		t.Fatal(err)
	}
	if !restA.Perf.Equal(restB.Perf, 0) {
		t.Fatal("leave-one-out folds differ after round trip")
	}
	for i := range truthA {
		if truthA[i] != truthB[i] {
			t.Fatalf("truth row differs at %d after round trip", i)
		}
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewBufferString("not json")); err == nil {
		t.Fatal("garbage must error")
	}
	if _, err := Load(bytes.NewBufferString(`{"space":{"Threads":0,"Speeds":0,"MemCtrls":0},"apps":[],"perf":[],"power":[]}`)); err == nil {
		t.Fatal("invalid space must error")
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	db := testDB(t, 0)
	db.Apps[1] = db.Apps[0] // duplicate
	if err := db.Validate(); err == nil {
		t.Fatal("duplicate names must fail validation")
	}
	db = testDB(t, 0)
	db.Apps = db.Apps[:10] // shape mismatch
	if err := db.Validate(); err == nil {
		t.Fatal("shape mismatch must fail validation")
	}
}

func TestRandomMask(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	mask := RandomMask(100, 20, rng)
	if len(mask) != 20 {
		t.Fatalf("mask size %d", len(mask))
	}
	seen := make(map[int]bool)
	prev := -1
	for _, idx := range mask {
		if idx < 0 || idx >= 100 {
			t.Fatalf("index %d out of range", idx)
		}
		if idx <= prev {
			t.Fatal("mask not sorted ascending / has duplicates")
		}
		if seen[idx] {
			t.Fatal("duplicate index")
		}
		seen[idx] = true
		prev = idx
	}
}

// TestRandomMaskOwnsItsIndices pins that a mask holds only its k indices:
// it must equal the historical sorted prefix of one rng.Perm(n), drawn from
// the same seed, and its capacity must be k, not the permutation's n.
func TestRandomMaskOwnsItsIndices(t *testing.T) {
	for _, c := range []struct{ n, k int }{{1024, 20}, {128, 20}, {32, 6}, {5, 0}, {5, 5}} {
		for seed := int64(1); seed <= 4; seed++ {
			want := rand.New(rand.NewSource(seed)).Perm(c.n)[:c.k]
			sort.Ints(want)
			rng := rand.New(rand.NewSource(seed))
			mask := RandomMask(c.n, c.k, rng)
			if !slices.Equal(mask, want) {
				t.Fatalf("n=%d k=%d seed %d: mask %v, want %v", c.n, c.k, seed, mask, want)
			}
			if cap(mask) != c.k {
				t.Fatalf("n=%d k=%d seed %d: mask capacity %d, want %d", c.n, c.k, seed, cap(mask), c.k)
			}
			// The generator advanced exactly as far as the one Perm call did.
			ref := rand.New(rand.NewSource(seed))
			ref.Perm(c.n)
			if got, want := rng.Int63(), ref.Int63(); got != want {
				t.Fatalf("n=%d k=%d seed %d: next draw %d, want %d", c.n, c.k, seed, got, want)
			}
		}
	}
}

func TestRandomMaskEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	if len(RandomMask(5, 0, rng)) != 0 {
		t.Fatal("empty mask should be allowed")
	}
	if len(RandomMask(5, 5, rng)) != 5 {
		t.Fatal("full mask should be allowed")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for k > n")
		}
	}()
	RandomMask(5, 6, rng)
}

func TestUniformMaskMatchesPaperExample(t *testing.T) {
	// The paper's §2 example observes 6 of 32 core counts: 5, 10, ..., 30,
	// which are configuration indices 4, 9, ..., 29 (0-based).
	mask := UniformMask(32, 6)
	want := []int{4, 9, 13, 18, 22, 27}
	if len(mask) != 6 {
		t.Fatalf("mask = %v", mask)
	}
	// Evenly spread: strictly increasing with roughly equal gaps.
	for i := 1; i < len(mask); i++ {
		gap := mask[i] - mask[i-1]
		if gap < 3 || gap > 7 {
			t.Fatalf("uneven mask %v (want spacing like %v)", mask, want)
		}
	}
}

func TestUniformMaskSmallSpace(t *testing.T) {
	mask := UniformMask(3, 3)
	if len(mask) == 0 || mask[len(mask)-1] >= 3 {
		t.Fatalf("mask = %v", mask)
	}
}

func TestObserve(t *testing.T) {
	truth := []float64{10, 20, 30, 40}
	obs := Observe(truth, []int{1, 3}, 0, nil)
	if obs.Values[0] != 20 || obs.Values[1] != 40 {
		t.Fatalf("Observe = %v", obs.Values)
	}
	rng := rand.New(rand.NewSource(9))
	noisy := Observe(truth, []int{0, 1, 2, 3}, 0.01, rng)
	if stats.Accuracy(noisy.Values, truth) < 0.9 {
		t.Fatal("1% noise should preserve accuracy")
	}
	same := Observe(truth, []int{0, 1, 2, 3}, 0, nil)
	for i, v := range same.Values {
		if v != truth[i] {
			t.Fatal("noiseless observation must be exact")
		}
	}
}

func TestObservePanicsOnBadIndex(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Observe([]float64{1}, []int{5}, 0, nil)
}
