package fault

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// RackOutage is one correlated failure window: every node in the rack is
// down — draws no power, runs no work, and should receive no budget share —
// for [Start, End) seconds of simulated time. Correlated outages are the
// cluster-level analogue of the per-event faults above: a tripped breaker or
// a top-of-rack switch failure takes out a whole node group at once, which
// is exactly the regime a global power budget must reclaim headroom from.
type RackOutage struct {
	Rack  int
	Start float64
	End   float64
}

// Outages is a rack outage schedule, sorted by (Start, Rack). It is a plain
// value (no RNG state): queries are pure and safe to share across workers.
type Outages []RackOutage

// RackSchedule draws a deterministic outage schedule for racks 0..racks-1
// over [0, horizon) seconds. Each rack independently fails as a Poisson
// process with meanBetween seconds between outage starts; each outage lasts
// an Exp(meanDown) duration, truncated at the horizon. Per-rack draws come
// from their own derived seed, so the schedule for rack r does not change
// when racks is raised — the same stream-splitting discipline the
// experiments use for worker-count invariance.
func RackSchedule(seed int64, racks int, horizon, meanBetween, meanDown float64) (Outages, error) {
	if racks < 0 {
		return nil, fmt.Errorf("fault: negative rack count %d", racks)
	}
	if horizon < 0 || math.IsNaN(horizon) {
		return nil, fmt.Errorf("fault: bad horizon %g", horizon)
	}
	if meanBetween <= 0 || meanDown <= 0 {
		return nil, fmt.Errorf("fault: outage means must be positive (between=%g down=%g)", meanBetween, meanDown)
	}
	var out Outages
	for r := 0; r < racks; r++ {
		rng := rand.New(rand.NewSource(seed + int64(r)*1_000_003))
		t := rng.ExpFloat64() * meanBetween
		for t < horizon {
			end := t + rng.ExpFloat64()*meanDown
			if end > horizon {
				end = horizon
			}
			out = append(out, RackOutage{Rack: r, Start: t, End: end})
			// Next arrival is after this outage ends: a rack cannot fail
			// while it is already down.
			t = end + rng.ExpFloat64()*meanBetween
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].Rack < out[j].Rack
	})
	return out, nil
}

// DownDuring reports whether rack's downtime overlaps [t0, t1) at all. A
// coordinator treats a node as unavailable for any epoch its rack is down
// in, even partially — a node that browns out mid-epoch delivers no work.
func (o Outages) DownDuring(rack int, t0, t1 float64) bool {
	for _, ro := range o {
		if ro.Rack == rack && ro.Start < t1 && t0 < ro.End {
			return true
		}
	}
	return false
}
