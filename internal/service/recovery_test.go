package service

import (
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"leo/internal/core"
	"leo/internal/fault"
	"leo/internal/persist"
	"leo/internal/platform"
	"leo/internal/profile"
)

// TestRestartRecoversTenantsAndEstimates: a gracefully stopped server
// snapshots every shard; a successor over the same StateDir serves the same
// tenants with bit-identical estimates immediately. Deleting the snapshots
// then forces the journal-replay path — tenants and estimates must be
// rebuilt bit-identically from the windows alone, which exercises the
// replay-equals-live invariant the journal format exists for.
func TestRestartRecoversTenantsAndEstimates(t *testing.T) {
	f := newFixture(t)
	dir := t.TempDir()
	cfg := f.config()
	cfg.StateDir = dir
	cfg.Shards = 2

	const tenants = 5
	names := make([]string, tenants)
	for i := range names {
		names[i] = tenantName(i)
	}

	s1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1.Handler())
	for _, name := range names {
		register(t, ts1.URL, name, "kmeans", f.idle)
	}
	// Two windows per tenant: the second refits warm, so recovery must
	// restore the warm posterior, not just the observations.
	for round := 0; round < 2; round++ {
		for i, name := range names {
			rng := rand.New(rand.NewSource(int64(5000 + 10*round + i)))
			mask := profile.RandomMask(f.space.N(), 12, rng)
			perf := profile.Observe(f.truePerf, mask, 0.02, rng)
			power := profile.Observe(f.truePower, mask, 0.02, rng)
			code, body := postJSON(t, ts1.URL+"/v1/observe",
				map[string]any{"tenant": name, "obs_idx": mask, "perf": perf.Values, "power": power.Values})
			if code != http.StatusOK {
				t.Fatalf("observe %s round %d: %d %s", name, round, code, body["error"])
			}
		}
	}
	want := make(map[string][2][]float64, tenants)
	for _, name := range names {
		want[name] = fetchEstimates(t, ts1.URL, name)
	}
	ts1.Close()
	if err := s1.Close(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Generation 2: snapshot-backed recovery.
	s2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(s2.Handler())
	for _, name := range names {
		got := fetchEstimates(t, ts2.URL, name)
		requireSameVector(t, name+" perf (snapshot recovery)", got[0], want[name][0])
		requireSameVector(t, name+" power (snapshot recovery)", got[1], want[name][1])
	}
	// A recovered tenant keeps serving new windows (and the restored warm
	// session accepts them).
	rng := rand.New(rand.NewSource(9999))
	mask := profile.RandomMask(f.space.N(), 12, rng)
	perf := profile.Observe(f.truePerf, mask, 0.02, rng)
	power := profile.Observe(f.truePower, mask, 0.02, rng)
	code, body := postJSON(t, ts2.URL+"/v1/observe",
		map[string]any{"tenant": names[0], "obs_idx": mask, "perf": perf.Values, "power": power.Values})
	if code != http.StatusOK {
		t.Fatalf("post-recovery observe: %d %s", code, body["error"])
	}
	var windows int
	if err := json.Unmarshal(body["windows"], &windows); err != nil {
		t.Fatal(err)
	}
	if windows != 3 {
		t.Fatalf("post-recovery window count %d, want 3", windows)
	}
	want3 := fetchEstimates(t, ts2.URL, names[0])
	ts2.Close()
	if err := s2.Close(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Generation 3: crash-shaped recovery. Remove every snapshot so only
	// the journals remain; replay must rebuild the same estimates — for
	// names[0] including the post-recovery third window.
	for shard := 0; shard < cfg.Shards; shard++ {
		for _, snap := range []string{"snapshot.bin", "snapshot.prev"} {
			path := filepath.Join(persist.ShardDir(dir, shard), snap)
			if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
				t.Fatal(err)
			}
		}
	}
	s3, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts3 := httptest.NewServer(s3.Handler())
	t.Cleanup(func() {
		ts3.Close()
		if err := s3.Close(context.Background()); err != nil {
			t.Errorf("Close: %v", err)
		}
	})
	for _, name := range names[1:] {
		got := fetchEstimates(t, ts3.URL, name)
		requireSameVector(t, name+" perf (journal replay)", got[0], want[name][0])
		requireSameVector(t, name+" power (journal replay)", got[1], want[name][1])
	}
	// names[0] saw a third window in generation 2; journal replay must
	// land on exactly those estimates, not the two-window ones.
	got := fetchEstimates(t, ts3.URL, names[0])
	requireSameVector(t, names[0]+" perf (journal replay, 3 windows)", got[0], want3[0])
	requireSameVector(t, names[0]+" power (journal replay, 3 windows)", got[1], want3[1])
}

// TestDamagedOnlySnapshotFallsBackToJournal: after one graceful drain each
// shard holds a single snapshot generation. A bit flip there leaves no
// snapshot to restore, but the journal still holds every window, so the
// successor must start and rebuild every tenant from it — the class seed's
// donor and the seed-transferred tenants alike — with bit-identical
// estimates.
func TestDamagedOnlySnapshotFallsBackToJournal(t *testing.T) {
	f := newFixture(t)
	dir := t.TempDir()
	cfg := f.config()
	cfg.StateDir = dir
	cfg.Shards = 1

	s1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1.Handler())
	window := func(name string, seed int64) {
		t.Helper()
		rng := rand.New(rand.NewSource(seed))
		mask := profile.RandomMask(f.space.N(), 12, rng)
		perf := profile.Observe(f.truePerf, mask, 0.02, rng)
		power := profile.Observe(f.truePower, mask, 0.02, rng)
		code, body := postJSON(t, ts1.URL+"/v1/observe",
			map[string]any{"tenant": name, "obs_idx": mask, "perf": perf.Values, "power": power.Values})
		if code != http.StatusOK {
			t.Fatalf("observe %s: %d %s", name, code, body["error"])
		}
	}
	// The donor's first window captures the class seed; tenants registered
	// after it start from that seed.
	names := []string{"donor", "transfer-a", "transfer-b"}
	register(t, ts1.URL, names[0], "kmeans", f.idle)
	window(names[0], 7000)
	for _, name := range names[1:] {
		register(t, ts1.URL, name, "kmeans", f.idle)
	}
	for round := int64(1); round <= 2; round++ {
		for i, name := range names {
			window(name, 7000+10*round+int64(i))
		}
	}
	want := make(map[string][2][]float64, len(names))
	for _, name := range names {
		want[name] = fetchEstimates(t, ts1.URL, name)
	}
	ts1.Close()
	if err := s1.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	for _, name := range names[1:] {
		if !s1.shards[0].tenants[name].seeded {
			t.Fatalf("%s did not start from the class seed", name)
		}
	}

	shardDir := persist.ShardDir(dir, 0)
	if _, err := os.Stat(filepath.Join(shardDir, "snapshot.prev")); !os.IsNotExist(err) {
		t.Fatalf("want a single snapshot generation, snapshot.prev: %v", err)
	}
	if err := fault.FlipBit(filepath.Join(shardDir, "snapshot.bin"), 3); err != nil {
		t.Fatal(err)
	}
	_, ts2 := startServer(t, cfg)
	for _, name := range names {
		got := fetchEstimates(t, ts2.URL, name)
		requireSameVector(t, name+" perf (journal fallback)", got[0], want[name][0])
		requireSameVector(t, name+" power (journal fallback)", got[1], want[name][1])
	}
}

// TestRecoveryDiscardsSnapshotOnPriorChange: a restart whose performance
// prior changed (π = 2) while its power prior did not must not serve the
// snapshot's estimates, which were fitted under the old prior. Recovery is
// all-or-nothing: the snapshot is discarded and the journal replays under
// the new priors, so the estimates equal a journal-only recovery's bit for
// bit.
func TestRecoveryDiscardsSnapshotOnPriorChange(t *testing.T) {
	f := newFixture(t)
	dir := t.TempDir()
	cfg := f.config()
	cfg.StateDir = dir
	cfg.Shards = 1
	s1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1.Handler())
	register(t, ts1.URL, "tenant", "kmeans", f.idle)
	for round := int64(0); round < 2; round++ {
		rng := rand.New(rand.NewSource(8000 + round))
		mask := profile.RandomMask(f.space.N(), 12, rng)
		perf := profile.Observe(f.truePerf, mask, 0.02, rng)
		power := profile.Observe(f.truePower, mask, 0.02, rng)
		code, body := postJSON(t, ts1.URL+"/v1/observe",
			map[string]any{"tenant": "tenant", "obs_idx": mask, "perf": perf.Values, "power": power.Values})
		if code != http.StatusOK {
			t.Fatalf("observe round %d: %d %s", round, code, body["error"])
		}
	}
	old := fetchEstimates(t, ts1.URL, "tenant")
	ts1.Close()
	if err := s1.Close(context.Background()); err != nil {
		t.Fatal(err)
	}

	// The same journal without its snapshot, for the journal-only recovery.
	journalOnly := copyStateDir(t, dir, false)

	changed := newFixtureWith(t, platform.Small(), core.Options{Pi: 2}, core.Options{})
	cfg2 := changed.config()
	cfg2.Shards = 1
	cfg2.StateDir = dir
	_, ts2 := startServer(t, cfg2)
	got := fetchEstimates(t, ts2.URL, "tenant")
	cfg2.StateDir = journalOnly
	_, ts3 := startServer(t, cfg2)
	want := fetchEstimates(t, ts3.URL, "tenant")
	requireSameVector(t, "perf (snapshot vs journal-only recovery)", got[0], want[0])
	requireSameVector(t, "power (snapshot vs journal-only recovery)", got[1], want[1])
	same := true
	for i := range old[0] {
		same = same && old[0][i] == want[0][i]
	}
	if same {
		t.Fatal("the changed performance prior did not change the estimates; the test proves nothing")
	}
}

// TestRecoveryFromV1SnapshotReplaysJournal: a state directory written before
// snapshots carried posterior frames (testdata/v1-state: one shard, one
// kmeans tenant, two 12-probe windows at n = 32, drained into a version-1
// snapshot) is refused as an unsupported snapshot version, so the shard
// replays its journal from sequence 0, with estimates bit-identical to a
// journal-only recovery's.
func TestRecoveryFromV1SnapshotReplaysJournal(t *testing.T) {
	f := newFixtureWith(t, platform.CoresOnly(), core.Options{}, core.Options{})
	cfg := f.config()
	cfg.Shards = 1
	cfg.StateDir = copyStateDir(t, "testdata/v1-state", true)
	v1 := mustRead(t, filepath.Join(persist.ShardDir(cfg.StateDir, 0), "snapshot.bin"))
	if _, err := persist.DecodeSnapshot(v1); err == nil || !strings.Contains(err.Error(), "unsupported version 1") {
		t.Fatalf("decoding the version-1 snapshot: %v, want an unsupported-version error", err)
	}
	_, ts := startServer(t, cfg)
	got := fetchEstimates(t, ts.URL, "tenant")
	cfg.StateDir = copyStateDir(t, "testdata/v1-state", false)
	_, tsJournal := startServer(t, cfg)
	want := fetchEstimates(t, tsJournal.URL, "tenant")
	requireSameVector(t, "perf (v1 snapshot vs journal-only recovery)", got[0], want[0])
	requireSameVector(t, "power (v1 snapshot vs journal-only recovery)", got[1], want[1])
}

// copyStateDir copies the state directory src into a fresh temporary
// directory, leaving out the snapshot generations unless withSnapshots.
func copyStateDir(t *testing.T, src string, withSnapshots bool) string {
	t.Helper()
	dst := t.TempDir()
	err := filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		if !withSnapshots && strings.HasPrefix(d.Name(), "snapshot.") {
			return nil
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		if err := os.MkdirAll(filepath.Join(dst, filepath.Dir(rel)), 0o755); err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), mustRead(t, path), 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	return dst
}

func mustRead(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func fetchEstimates(t testing.TB, base, tenant string) [2][]float64 {
	t.Helper()
	code, est := getJSON(t, base+"/v1/estimate?tenant="+tenant)
	if code != http.StatusOK {
		t.Fatalf("estimate %s: %d %s", tenant, code, est["error"])
	}
	var perf, power []float64
	if err := json.Unmarshal(est["perf"], &perf); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(est["power"], &power); err != nil {
		t.Fatal(err)
	}
	return [2][]float64{perf, power}
}

// FuzzUnpackTenantMeta pins the tenant-meta codec that names every journal
// record and snapshot entry: unpacking never panics, and every tag it
// accepts re-packs into a tag that unpacks to the same fields.
func FuzzUnpackTenantMeta(f *testing.F) {
	tn := &tenant{name: "a-tenant", class: &Class{Name: "kmeans"}, idlePower: 41.5, rung: 1}
	f.Add(packTenantMeta(tn, false, false))
	f.Add(packTenantMeta(tn, true, true))
	f.Add("")
	f.Add("a" + metaSep + "b" + metaSep + "7ff8000000000001" + metaSep + "+2" + metaSep)
	f.Add("a" + metaSep + "b" + metaSep + "0" + metaSep + "0" + metaSep + "ts")
	f.Fuzz(func(t *testing.T, s string) {
		m, err := unpackTenantMeta(s)
		if err != nil {
			return
		}
		tag := packTenantMeta(&tenant{name: m.name, class: &Class{Name: m.class}, idlePower: m.idlePower, rung: m.rung},
			m.shed, m.transferred)
		got, err := unpackTenantMeta(tag)
		if err != nil {
			t.Fatalf("%q re-packed as %q, which does not unpack: %v", s, tag, err)
		}
		if got.name != m.name || got.class != m.class ||
			math.Float64bits(got.idlePower) != math.Float64bits(m.idlePower) ||
			got.rung != m.rung || got.shed != m.shed || got.transferred != m.transferred {
			t.Fatalf("%q re-packed as %q unpacks to %+v, want %+v", s, tag, got, m)
		}
	})
}
