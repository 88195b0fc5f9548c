package baseline

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"sync"
	"testing"

	"leo/internal/core"
	"leo/internal/matrix"
	"leo/internal/platform"
)

func sessionKnown() *matrix.Matrix {
	return matrix.NewFromRows([][]float64{
		{1, 2, 3, 4},
		{2, 3, 4, 5},
		{1.5, 2.5, 3.5, 4.5},
	})
}

// allEstimators builds one of each implementation over the same 4-config
// problem, so a property can be asserted across the board.
func allEstimators(t *testing.T) []Estimator {
	t.Helper()
	known := sessionKnown()
	off, err := NewOffline(known)
	if err != nil {
		t.Fatal(err)
	}
	return []Estimator{
		NewLEO(known, core.Options{}),
		NewOnline(platform.CoresOnly()),
		off,
		NewExhaustive([]float64{1, 2, 3, 4}),
		NewOracle(func() []float64 { return []float64{1, 2, 3, 4} }),
	}
}

// TestNonFiniteObservationsRejected: every implementation must reject NaN
// and Inf observations instead of folding them into a prediction.
func TestNonFiniteObservationsRejected(t *testing.T) {
	for _, est := range allEstimators(t) {
		for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			if _, err := est.Estimate([]int{0, 1}, []float64{1, bad}); err == nil {
				t.Errorf("%T.Estimate accepted observation %g", est, bad)
			}
			sess, err := est.NewSession(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if _, err := sess.Update(context.Background(), []int{0, 1}, []float64{1, bad}); err == nil {
				t.Errorf("%T session accepted observation %g", est, bad)
			}
		}
		if _, err := est.Estimate([]int{0, 1}, []float64{1}); err == nil {
			t.Errorf("%T.Estimate accepted mismatched lengths", est)
		}
	}
}

// TestOnlineSessionBelowThreshold: the session path surfaces the same
// too-few-samples failure as the one-shot path.
func TestOnlineSessionBelowThreshold(t *testing.T) {
	sess, err := NewOnline(platform.Small()).NewSession(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Update(context.Background(), []int{0, 1}, []float64{1, 2}); !errors.Is(err, ErrTooFewSamples) {
		t.Fatalf("err = %v, want ErrTooFewSamples", err)
	}
}

// TestOfflineEmptyDatabase: an empty database cannot seed the offline
// estimator, and a LEO estimator over it fails on use with ErrNoData when
// there are no observations either.
func TestOfflineEmptyDatabase(t *testing.T) {
	if _, err := NewOffline(matrix.New(0, 4)); err == nil {
		t.Fatal("NewOffline on an empty database must fail")
	}
	leo := NewLEO(matrix.New(0, 4), core.Options{})
	if _, err := leo.Estimate(nil, nil); !errors.Is(err, core.ErrNoData) {
		t.Fatalf("LEO on empty database with no observations: err = %v, want ErrNoData", err)
	}
}

// TestSessionAccumulates: observations persist across Update calls, with
// latest-wins replacement, and DropObservations clears them.
func TestSessionAccumulates(t *testing.T) {
	truth := []float64{10, 20, 30, 40}
	sess, err := NewExhaustive(truth).NewSession(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Update(context.Background(), []int{0}, []float64{11}); err != nil {
		t.Fatal(err)
	}
	got, err := sess.Update(context.Background(), []int{1}, []float64{22})
	if err != nil {
		t.Fatal(err)
	}
	for i := range truth {
		if got[i] != truth[i] {
			t.Fatalf("estimate[%d] = %g, want %g", i, got[i], truth[i])
		}
	}
	a := sess.(*adaptSession)
	if len(a.obsIdx) != 2 {
		t.Fatalf("accumulated %d observations, want 2", len(a.obsIdx))
	}
	if _, err := sess.Update(context.Background(), []int{0}, []float64{99}); err != nil {
		t.Fatal(err)
	}
	if len(a.obsIdx) != 2 || a.obsVal[0] != 99 {
		t.Fatalf("latest-wins failed: idx=%v val=%v", a.obsIdx, a.obsVal)
	}
	sess.DropObservations()
	if len(a.obsIdx) != 0 {
		t.Fatalf("DropObservations left %v", a.obsIdx)
	}
}

// TestLEOSessionMatchesEstimate: a cold LEO session fed the same
// observations in one Update reproduces the one-shot Estimate exactly.
func TestLEOSessionMatchesEstimate(t *testing.T) {
	known := sessionKnown()
	leo := NewLEO(known, core.Options{})
	obsIdx, obsVal := []int{0, 2}, []float64{1.2, 3.4}
	want, err := leo.Estimate(obsIdx, obsVal)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := leo.NewSession(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	got, err := sess.Update(context.Background(), obsIdx, obsVal)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("estimate[%d]: session %g != one-shot %g", i, got[i], want[i])
		}
	}
}

// TestLEOSessionCancel: a canceled context aborts the session's fit with
// core.ErrCanceled.
func TestLEOSessionCancel(t *testing.T) {
	sess, err := NewLEO(sessionKnown(), core.Options{}).NewSession(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sess.Update(ctx, []int{0}, []float64{1}); !errors.Is(err, core.ErrCanceled) {
		t.Fatalf("err = %v, want core.ErrCanceled", err)
	}
}

// TestNewLEOFromPrior: sessions over an explicitly shared prior behave like
// sessions from the owning estimator.
func TestNewLEOFromPrior(t *testing.T) {
	prior, err := core.NewPrior(sessionKnown(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	leo := NewLEOFromPrior(prior)
	if leo.Prior() != prior {
		t.Fatal("Prior() must expose the shared prior")
	}
	got, err := leo.Estimate([]int{1}, []float64{2.9})
	if err != nil {
		t.Fatal(err)
	}
	want, err := NewLEO(sessionKnown(), core.Options{}).Estimate([]int{1}, []float64{2.9})
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("estimate[%d]: shared-prior %g != fresh %g", i, got[i], want[i])
		}
	}
	if NewLEOFromPrior(nil).err == nil {
		t.Fatal("NewLEOFromPrior(nil) must fail on use")
	}
}

// TestLEOSessionsShareScratchConcurrently: sessions of one LEO estimator,
// updated from concurrent goroutines as a server's shards update their
// tenants, borrow fit scratch from the estimator's one free list and
// produce exactly the estimates each would alone. Under -race it also
// shows that no two fits in flight share scratch.
func TestLEOSessionsShareScratchConcurrently(t *testing.T) {
	const tenants, windows, n = 6, 3, 48
	rng := rand.New(rand.NewSource(5))
	known := matrix.New(8, n)
	for i := range known.Data {
		known.Data[i] = 1 + rng.Float64()
	}
	obs := make([][][]float64, tenants) // tenant → window → values at 0..5+w
	for i := range obs {
		obs[i] = make([][]float64, windows)
		for w := range obs[i] {
			obs[i][w] = make([]float64, 6+w)
			for j := range obs[i][w] {
				obs[i][w][j] = 1 + rng.Float64()
			}
		}
	}
	run := func(leo *LEO, i int) ([][]float64, error) {
		sess, err := leo.NewSession(context.Background())
		if err != nil {
			return nil, err
		}
		var out [][]float64
		for _, vals := range obs[i] {
			idx := make([]int, len(vals))
			for j := range idx {
				idx[j] = j * 7 % n
			}
			est, err := sess.Update(context.Background(), idx, vals)
			if err != nil {
				return nil, err
			}
			out = append(out, est)
		}
		return out, nil
	}
	shared := NewLEO(known, core.Options{})
	got := make([][][]float64, tenants)
	errs := make([]error, tenants)
	var wg sync.WaitGroup
	for i := 0; i < tenants; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = run(shared, i)
		}(i)
	}
	wg.Wait()
	for i := 0; i < tenants; i++ {
		if errs[i] != nil {
			t.Fatalf("tenant %d: %v", i, errs[i])
		}
		want, err := run(NewLEO(known, core.Options{}), i)
		if err != nil {
			t.Fatal(err)
		}
		for w := range want {
			for j := range want[w] {
				if math.Float64bits(got[i][w][j]) != math.Float64bits(want[w][j]) {
					t.Fatalf("tenant %d window %d estimate[%d]: %g concurrent, %g alone",
						i, w, j, got[i][w][j], want[w][j])
				}
			}
		}
	}
}
