package persist

import (
	"context"
	"math/rand"
	"testing"

	"leo/internal/apps"
	"leo/internal/core"
	"leo/internal/platform"
	"leo/internal/profile"
)

// fittedState runs a cold fit and one frozen refit of kmeans against the
// leave-one-out prior of the given metric over space, and returns the
// prior and the session.
func fittedState(t testing.TB, space platform.Space, power bool) (*core.Prior, *core.Session) {
	t.Helper()
	db, err := profile.Collect(space, apps.Suite(), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	target, err := db.AppIndex("kmeans")
	if err != nil {
		t.Fatal(err)
	}
	rest, truePerf, truePower, err := db.LeaveOneOut(target)
	if err != nil {
		t.Fatal(err)
	}
	known, truth := rest.Perf, truePerf
	if power {
		known, truth = rest.Power, truePower
	}
	prior, err := core.NewPrior(known, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := prior.NewSession()
	rng := rand.New(rand.NewSource(12))
	for w := 0; w < 2; w++ {
		s.ClearObservations()
		for _, j := range profile.RandomMask(space.N(), 12, rng) {
			if err := s.Add(j, truth[j]); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := s.Fit(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	return prior, s
}

// TestSnapshotRoundTripsSessionFrames: warm session states in both posterior
// frames — a subspace frame (n = 128: α, Ω, Q and Σ′) and the identity
// frame (n = 32 performance, a dense Σ) — survive EncodeSnapshot and
// DecodeSnapshot bit for bit, and a session restored from the decoded state
// refits bit-identically to the one that was captured.
func TestSnapshotRoundTripsSessionFrames(t *testing.T) {
	for _, c := range []struct {
		name     string
		space    platform.Space
		identity bool
	}{{"subspace", platform.Small(), false}, {"identity", platform.CoresOnly(), true}} {
		prior, live := fittedState(t, c.space, false)
		st := live.State()
		if got := st.Q == nil && len(st.Omega) == 0; got != c.identity {
			t.Fatalf("%s: state frame has Q=%v Ω=%v", c.name, st.Q != nil, st.Omega)
		}
		want := &Snapshot{Seq: 3, Sessions: []SessionEntry{{Name: c.name, Digest: prior.Digest(), State: st}}}
		got, err := DecodeSnapshot(EncodeSnapshot(want))
		if err != nil {
			t.Fatal(err)
		}
		snapshotsEqual(t, got, want)

		restored := prior.NewSession()
		if err := restored.Restore(got.Sessions[0].State); err != nil {
			t.Fatal(err)
		}
		mask := profile.RandomMask(c.space.N(), 12, rand.New(rand.NewSource(13)))
		var results [2]*core.Result
		for i, s := range []*core.Session{live, restored} {
			s.ClearObservations()
			for _, j := range mask {
				if err := s.Add(j, float64(j%7)+1); err != nil {
					t.Fatal(err)
				}
			}
			if results[i], err = s.Fit(context.Background()); err != nil {
				t.Fatal(err)
			}
		}
		if !floatsEqual(results[0].Estimate, results[1].Estimate) || !floatsEqual(results[0].Variance, results[1].Variance) {
			t.Fatalf("%s: the restored session's refit differs from the live one's", c.name)
		}
	}
}
