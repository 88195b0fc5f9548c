package core

import (
	"context"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"leo/internal/apps"
	"leo/internal/matrix"
	"leo/internal/platform"
	"leo/internal/profile"
)

// TestEMIterationAllocs pins the zero-allocation contract: after the
// workspace is warm, one full EM iteration (E-step + M-step) performs no
// heap allocations — in the subspace frame a cold fit runs in, and in the
// identity frame over the session's own parameters. The matrix kernels only
// allocate when they fan out goroutines, so the test forces the inline path
// with GOMAXPROCS(1) — the same path every fit takes on a loaded machine
// where the scheduler grants one core.
func TestEMIterationAllocs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))

	space := platform.Small()
	db, err := profile.Collect(space, apps.Suite(), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	target, err := db.AppIndex("kmeans")
	if err != nil {
		t.Fatal(err)
	}
	rest, truth, _, err := db.LeaveOneOut(target)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	mask := profile.RandomMask(space.N(), 20, rng)
	obs := profile.Observe(truth, mask, 0.01, rng)

	for _, kind := range []string{"subspace", "identity"} {
		em := newEMState(rest.Perf, obs.Indices, obs.Values, Options{}.withDefaults())
		if kind == "subspace" {
			em.coldStart()
			if !em.sub.active {
				t.Fatal("cold start did not choose a subspace frame")
			}
		} else {
			em.init()
		}

		ctx := context.Background()
		iterate := func() {
			e, err := em.eStep(ctx)
			if err != nil {
				t.Fatal(err)
			}
			em.lift(e.zTarget)
			if err := em.mStep(ctx, e); err != nil {
				t.Fatal(err)
			}
		}
		// The first iteration allocates every lazily sized buffer. Run it and
		// collect before measuring, so a GC cycle those allocations trigger
		// cannot overlap the measured runs (the count then intermittently
		// included allocations outside the iteration). After that the steady
		// state must be allocation-free.
		iterate()
		runtime.GC()
		allocs := testing.AllocsPerRun(3, iterate)
		if allocs != 0 {
			t.Fatalf("%s-frame EM iteration allocated %v times, want 0", kind, allocs)
		}
	}
}

// TestInitialNoiseNoData is the regression test for the divide-by-zero:
// with no known rows and no observations the old code computed 0/0 = NaN.
func TestInitialNoiseNoData(t *testing.T) {
	known := matrix.New(0, 4)
	em := newEMState(known, nil, nil, Options{}.withDefaults())
	got := em.initialNoise()
	if math.IsNaN(got) {
		t.Fatal("initialNoise returned NaN for empty data")
	}
	if got != em.opts.SigmaFloor {
		t.Fatalf("initialNoise = %g, want SigmaFloor %g", got, em.opts.SigmaFloor)
	}
}

// TestRelChangeLengthMismatch checks the guard: mismatched estimates report
// infinite change rather than silently comparing a prefix.
func TestRelChangeLengthMismatch(t *testing.T) {
	if got := relChange([]float64{1, 2}, []float64{1}); !math.IsInf(got, 1) {
		t.Fatalf("relChange on mismatched lengths = %g, want +Inf", got)
	}
	if got := relChange([]float64{1, 2}, []float64{1, 2}); got != 0 {
		t.Fatalf("relChange on equal vectors = %g, want 0", got)
	}
	got := relChange([]float64{3}, []float64{1})
	if want := 1.0; math.Abs(got-want) > 1e-15 {
		t.Fatalf("relChange = %g, want %g", got, want)
	}
}

// TestEStepWorkspaceMatchesNaive cross-checks the workspace fast path
// against the literal per-app implementation on a real fit.
func TestEStepWorkspaceMatchesNaive(t *testing.T) {
	space := platform.CoresOnly()
	db, err := profile.Collect(space, apps.Suite(), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	target, err := db.AppIndex("kmeans")
	if err != nil {
		t.Fatal(err)
	}
	rest, truth, _, err := db.LeaveOneOut(target)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	mask := profile.RandomMask(space.N(), 6, rng)
	obs := profile.Observe(truth, mask, 0.01, rng)

	fast := newEMState(rest.Perf, obs.Indices, obs.Values, Options{}.withDefaults())
	fast.init()
	naive := newEMState(rest.Perf, obs.Indices, obs.Values, Options{NaiveEStep: true}.withDefaults())
	naive.init()

	ef, err := fast.eStep(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	en, err := naive.eStep(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	const tol = 1e-6
	for i := range ef.zTarget {
		if math.Abs(ef.zTarget[i]-en.zTarget[i]) > tol {
			t.Fatalf("zTarget[%d]: fast %g vs naive %g", i, ef.zTarget[i], en.zTarget[i])
		}
	}
	if !ef.cTarget.Equal(en.cTarget, tol) {
		t.Fatal("cTarget mismatch between fast and naive E-step")
	}
}
