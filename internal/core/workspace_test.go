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
// heap allocations — in the subspace frame a cold fit runs in, in the
// identity frame over the session's own parameters, and in a frozen refit
// on a cold fit's subspace frame — and neither does the E-step
// BenchmarkEStepOnly times, at a scheduler width of two or more.
func TestEMIterationAllocs(t *testing.T) {
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

	for _, kind := range []string{"subspace", "identity", "frozen subspace"} {
		em := newEMState(rest.Perf, obs.Indices, obs.Values, Options{}.withDefaults())
		switch kind {
		case "subspace":
			em.coldStart()
			if !em.sub.active {
				t.Fatal("cold start did not choose a subspace frame")
			}
		case "identity":
			em.init()
		default:
			// A frozen refit on the cold fit's frame, set up as Fit sets
			// one up, over the previous window's observations.
			if _, err := em.Fit(context.Background()); err != nil {
				t.Fatal(err)
			}
			if em.heldFrame() == nil {
				t.Fatal("cold fit left no subspace frame")
			}
			em.frozen = true
			em.ws.ensureObs(em.n, len(em.obsIdx))
			em.ws.wc.fitPrepared = false
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

	// testing.AllocsPerRun runs at GOMAXPROCS=1, which hides an allocation
	// made only at a wider scheduler (a kernel fanning out across
	// goroutines), so this case counts mallocs itself at the machine's
	// width, raised to two if it is one. The runtime's own background
	// goroutines (the scavenger, post-GC cleanups) count in MemStats.Mallocs
	// too, so it keeps the quietest of a few windows; an allocating E-step
	// shows in every window.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0))))
	em := eStepBenchState(t)
	ctx := context.Background()
	if _, err := em.eStep(ctx); err != nil { // grows the workspace
		t.Fatal(err)
	}
	runtime.GC()
	const windows, steps = 5, 3
	least := uint64(math.MaxUint64)
	for w := 0; w < windows && least > 0; w++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < steps; i++ {
			if _, err := em.eStep(ctx); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		least = min(least, after.Mallocs-before.Mallocs)
	}
	if least != 0 {
		t.Fatalf("identity-frame E-step allocated %d times over %d steps at GOMAXPROCS=%d, want 0",
			least, steps, runtime.GOMAXPROCS(0))
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
// against the dense reference's E-step on a real fit.
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
	ef, err := fast.eStep(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	requireEStepMatchesReference(t, fast, ef, 1e-6)
}

// newEMState builds a session preloaded with observations, for the tests
// and benchmarks that drive the E- and M-steps directly. It panics on
// invalid input.
func newEMState(known *matrix.Matrix, obsIdx []int, obsVal []float64, opts Options) *Session {
	p, err := NewPrior(known, opts)
	if err != nil {
		panic(err)
	}
	s := p.NewSession()
	for i, idx := range obsIdx {
		if err := s.Add(idx, obsVal[i]); err != nil {
			panic(err)
		}
	}
	return s
}
