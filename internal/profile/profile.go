// Package profile manages the offline profiling database LEO learns from:
// per-application vectors of power and performance across every platform
// configuration, plus the observation masks that describe which
// configurations of the target application have been sampled online.
package profile

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"sort"

	"leo/internal/apps"
	"leo/internal/matrix"
	"leo/internal/platform"
)

// Database holds profiling data for M applications over the n configurations
// of a platform space. Row i of Perf / Power is application i's y_i vector
// from the paper (performance in heartbeats/s, power in Watts).
type Database struct {
	Space platform.Space
	Apps  []string
	Perf  *matrix.Matrix // M×n
	Power *matrix.Matrix // M×n
}

// Collect profiles every application in list across the whole space,
// applying multiplicative Gaussian measurement noise with relative standard
// deviation noise (0 disables noise, mimicking long averaging windows).
// This is the "exhaustive search" data collection the paper performs offline
// (§6.2), which took days per application on real hardware and is instant on
// the simulator.
func Collect(space platform.Space, list []*apps.App, noise float64, rng *rand.Rand) (*Database, error) {
	if err := space.Validate(); err != nil {
		return nil, err
	}
	if noise < 0 {
		return nil, fmt.Errorf("profile: negative noise %g", noise)
	}
	if noise > 0 && rng == nil {
		return nil, fmt.Errorf("profile: noise requires a random source")
	}
	n := space.N()
	db := &Database{
		Space: space,
		Apps:  make([]string, len(list)),
		Perf:  matrix.New(len(list), n),
		Power: matrix.New(len(list), n),
	}
	for i, a := range list {
		if err := a.Validate(); err != nil {
			return nil, err
		}
		db.Apps[i] = a.Name
		perf := a.PerfVector(space)
		power := a.PowerVector(space)
		if noise > 0 {
			for c := range perf {
				perf[c] *= 1 + noise*rng.NormFloat64()
				power[c] *= 1 + noise*rng.NormFloat64()
			}
		}
		db.Perf.SetRow(i, perf)
		db.Power.SetRow(i, power)
	}
	return db, nil
}

// NumApps returns the number of profiled applications.
func (db *Database) NumApps() int { return len(db.Apps) }

// AppIndex returns the row index of the named application.
func (db *Database) AppIndex(name string) (int, error) {
	for i, a := range db.Apps {
		if a == name {
			return i, nil
		}
	}
	return 0, fmt.Errorf("profile: application %q not in database", name)
}

// LeaveOneOut splits the database into the profiles of every application
// except index target (returned as a new database) and the target's own
// ground-truth perf and power vectors. This is the evaluation protocol of
// §6.3: the target application is treated as never seen before.
func (db *Database) LeaveOneOut(target int) (*Database, []float64, []float64, error) {
	if target < 0 || target >= db.NumApps() {
		return nil, nil, nil, fmt.Errorf("profile: target %d out of range [0,%d)", target, db.NumApps())
	}
	m := db.NumApps() - 1
	rest := &Database{
		Space: db.Space,
		Apps:  make([]string, 0, m),
		Perf:  matrix.New(m, db.Space.N()),
		Power: matrix.New(m, db.Space.N()),
	}
	r := 0
	for i := 0; i < db.NumApps(); i++ {
		if i == target {
			continue
		}
		rest.Apps = append(rest.Apps, db.Apps[i])
		rest.Perf.SetRow(r, db.Perf.RowView(i))
		rest.Power.SetRow(r, db.Power.RowView(i))
		r++
	}
	return rest, db.Perf.Row(target), db.Power.Row(target), nil
}

// Validate checks internal consistency.
func (db *Database) Validate() error {
	if err := db.Space.Validate(); err != nil {
		return err
	}
	n := db.Space.N()
	m := len(db.Apps)
	if db.Perf == nil || db.Power == nil {
		return fmt.Errorf("profile: nil matrices")
	}
	if db.Perf.Rows != m || db.Perf.Cols != n {
		return fmt.Errorf("profile: perf matrix %dx%d, want %dx%d", db.Perf.Rows, db.Perf.Cols, m, n)
	}
	if db.Power.Rows != m || db.Power.Cols != n {
		return fmt.Errorf("profile: power matrix %dx%d, want %dx%d", db.Power.Rows, db.Power.Cols, m, n)
	}
	seen := make(map[string]bool, m)
	for _, a := range db.Apps {
		if a == "" {
			return fmt.Errorf("profile: empty application name")
		}
		if seen[a] {
			return fmt.Errorf("profile: duplicate application %q", a)
		}
		seen[a] = true
	}
	return nil
}

// databaseJSON is the serialized representation.
type databaseJSON struct {
	Space platform.Space `json:"space"`
	Apps  []string       `json:"apps"`
	Perf  [][]float64    `json:"perf"`
	Power [][]float64    `json:"power"`
}

// Save writes the database as JSON.
func (db *Database) Save(w io.Writer) error {
	if err := db.Validate(); err != nil {
		return err
	}
	out := databaseJSON{Space: db.Space, Apps: db.Apps}
	for i := 0; i < db.NumApps(); i++ {
		out.Perf = append(out.Perf, db.Perf.Row(i))
		out.Power = append(out.Power, db.Power.Row(i))
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

// Load reads a database previously written by Save.
func Load(r io.Reader) (*Database, error) {
	var in databaseJSON
	if err := json.NewDecoder(r).Decode(&in); err != nil {
		return nil, fmt.Errorf("profile: decode: %w", err)
	}
	db := &Database{
		Space: in.Space,
		Apps:  in.Apps,
		Perf:  matrix.NewFromRows(in.Perf),
		Power: matrix.NewFromRows(in.Power),
	}
	if len(in.Apps) == 0 {
		db.Perf = matrix.New(0, in.Space.N())
		db.Power = matrix.New(0, in.Space.N())
	}
	if err := db.Validate(); err != nil {
		return nil, err
	}
	return db, nil
}

// RandomMask returns k distinct configuration indices drawn uniformly from
// [0, n), sorted ascending. It is the sampling policy of §6.3 (LEO and the
// Online baseline "sample randomly select 20 configurations each").
func RandomMask(n, k int, rng *rand.Rand) []int {
	if k < 0 || k > n {
		panic(fmt.Sprintf("profile: mask size %d out of range [0,%d]", k, n))
	}
	// Copy the k drawn indices out of the permutation so a held mask does
	// not pin all n of its ints.
	mask := make([]int, k)
	copy(mask, rng.Perm(n))
	sort.Ints(mask)
	return mask
}

// UniformMask returns k indices evenly spaced across [0, n), the policy of
// the paper's motivating example (6 observations at 5, 10, …, 30 cores).
func UniformMask(n, k int) []int {
	if k <= 0 || k > n {
		panic(fmt.Sprintf("profile: mask size %d out of range [1,%d]", k, n))
	}
	out := make([]int, k)
	for i := range out {
		out[i] = (i + 1) * n / (k + 1)
		if out[i] >= n {
			out[i] = n - 1
		}
	}
	// De-duplicate for tiny spaces.
	out = dedupSorted(out)
	return out
}

func dedupSorted(xs []int) []int {
	if len(xs) == 0 {
		return xs
	}
	out := xs[:1]
	for _, v := range xs[1:] {
		if v != out[len(out)-1] {
			out = append(out, v)
		}
	}
	return out
}

// Observations pairs a mask with its measured values.
type Observations struct {
	Indices []int     // sorted configuration indices
	Values  []float64 // measured value at each index
}

// Observe extracts the entries of truth at the mask indices, optionally
// corrupted by multiplicative Gaussian noise.
func Observe(truth []float64, mask []int, noise float64, rng *rand.Rand) Observations {
	obs := Observations{Indices: append([]int(nil), mask...), Values: make([]float64, len(mask))}
	for i, idx := range mask {
		if idx < 0 || idx >= len(truth) {
			panic(fmt.Sprintf("profile: mask index %d out of range [0,%d)", idx, len(truth)))
		}
		v := truth[idx]
		if noise > 0 {
			v *= 1 + noise*rng.NormFloat64()
		}
		obs.Values[i] = v
	}
	return obs
}
