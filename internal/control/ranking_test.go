package control

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// TestPerfRankingMatchesSortSliceReference pins perfRanking's escalation
// order to the sort.Slice build it replaced. Estimates drawn from a few
// levels tie constantly, and above 12 entries the sort is pdqsort, which is
// not stable: only a comparator that answers < 0 exactly where the old less
// held (no index tie-break) reproduces the old order of tied configurations.
func TestPerfRankingMatchesSortSliceReference(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0}
	for _, n := range []int{0, 1, 2, 13, 129, 1025} {
		for trial := 0; trial < 8; trial++ {
			est := make([]float64, n)
			for i := range est {
				est[i] = float64(1 + rng.Intn(1+n/8))
				if trial%2 == 1 && rng.Intn(10) == 0 {
					est[i] = specials[rng.Intn(len(specials))]
				}
			}
			want := make([]int, n)
			for i := range want {
				want[i] = i
			}
			sort.Slice(want, func(a, b int) bool { return est[want[a]] > est[want[b]] })

			got := (&Controller{perfEst: est}).perfRanking()
			if len(got) != n {
				t.Fatalf("n=%d trial %d: ranking has %d entries", n, trial, len(got))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("n=%d trial %d: rank %d is configuration %d (estimate %g), reference %d (estimate %g)",
						n, trial, i, got[i], est[got[i]], want[i], est[want[i]])
				}
			}
		}
	}
}
