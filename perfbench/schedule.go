package main

import (
	"fmt"
	"math/rand"
	"sort"

	"leo/internal/apps"
	"leo/internal/platform"
	"leo/internal/service"
)

// serveSpec is one serve workload's fixed shape. Offered rates are fixed
// here, never derived per run. Plan-heavy is offered about a quarter of the
// closed-loop capacity measured on a 2-vCPU x86-64 VM; churn far less,
// because every admitted tenant stays resident (README.md).
type serveSpec struct {
	name    string
	space   func() platform.Space
	classes []string

	// Long-lived fleet (cohorts == false): tenants registered on arrival,
	// each reporting meanRate windows per second from then on. Arrivals are
	// spread uniformly over the first arrivalSpread share of the phase.
	tenants       int
	arrivalSpread float64
	// Churn (cohorts == true): one cohort of cohortTenants fresh
	// tenants starts every cohortEvery seconds and lives cohortSpan seconds,
	// so each tenant reports about meanRate·cohortSpan windows.
	cohorts       bool
	cohortTenants int
	cohortEvery   float64
	cohortSpan    float64

	meanRate       float64
	plansPerWindow int
	planLevels     int // 0: continuous demand, so the plan cache misses
	probes         int
	noise          float64

	stateDir  bool    // journal every accepted window
	openShare float64 // share of --seconds spent in the open-loop phase
	// warmup seconds open the open loop untimed: they hold each shard's
	// once-per-server cold fits that create its class seeds.
	warmup float64
	// steadyFrom is when the offered load stops ramping (every tenant of a
	// long-lived fleet has arrived); plan and observe latencies count from
	// there.
	steadyFrom float64
}

var planHeavy = serveSpec{
	name:           "serve-plan-heavy",
	space:          platform.Small,
	classes:        []string{"kmeans", "swish", "x264"},
	tenants:        130,
	arrivalSpread:  0.3,
	meanRate:       4.0,
	plansPerWindow: 8,
	planLevels:     4,
	probes:         12,
	noise:          0.02,
	openShare:      0.6,
	warmup:         1,
	steadyFrom:     4.5,
}

var admissionChurn = serveSpec{
	name:           "serve-admission-churn",
	space:          platform.CoresOnly,
	classes:        []string{"kmeans", "swish", "x264", "bodytrack"},
	cohorts:        true,
	cohortTenants:  100,
	cohortEvery:    1.0,
	cohortSpan:     2.0,
	meanRate:       0.75,
	plansPerWindow: 1,
	probes:         12,
	noise:          0.02,
	stateDir:       true,
	openShare:      0.6,
	warmup:         2,
	steadyFrom:     2,
}

// classTruths gives each class's ground-truth response vectors on space.
func classTruths(space platform.Space, names []string) ([]service.TrafficClass, error) {
	out := make([]service.TrafficClass, len(names))
	for i, name := range names {
		app, err := apps.ByName(name)
		if err != nil {
			return nil, err
		}
		out[i] = service.TrafficClass{Name: name, PerfTruth: app.PerfVector(space), PowerTruth: app.PowerVector(space)}
	}
	return out, nil
}

// buildSchedule renders duration seconds of the workload's traffic from
// seed. Tenants whose process drew no window are dropped (a registration
// with nothing to plan from).
func buildSchedule(spec serveSpec, classes []service.TrafficClass, seed int64, duration float64) ([]service.Event, error) {
	if !spec.cohorts {
		evs, err := service.GenerateTraffic(trafficConfig(spec, classes, seed, spec.tenants, duration))
		if err != nil {
			return nil, err
		}
		return dropIdle(stagger(evs, seed, spec.arrivalSpread*duration, duration)), nil
	}
	// GenerateTraffic starts every tenant near t=0, so churn is built from
	// renamed, time-shifted cohorts. Each cohort's class rotation and
	// arrival draws come from the seed; its size is fixed, so every run
	// admits about the same number of tenants.
	rng := rand.New(rand.NewSource(seed))
	var all []service.Event
	for k := 0; float64(k)*spec.cohortEvery < duration; k++ {
		start := float64(k) * spec.cohortEvery
		span := min(spec.cohortSpan, duration-start)
		rot := rng.Intn(len(classes))
		cseed := rng.Int63()
		rotated := append(append([]service.TrafficClass(nil), classes[rot:]...), classes[:rot]...)
		evs, err := service.GenerateTraffic(trafficConfig(spec, rotated, cseed, spec.cohortTenants, span))
		if err != nil {
			return nil, err
		}
		all = append(all, rename(evs, fmt.Sprintf("c%03d-", k), start)...)
	}
	sort.SliceStable(all, func(a, b int) bool { return all[a].At < all[b].At })
	return dropIdle(all), nil
}

func trafficConfig(spec serveSpec, classes []service.TrafficClass, seed int64, tenants int, duration float64) service.TrafficConfig {
	return service.TrafficConfig{
		Seed:              seed,
		Tenants:           tenants,
		Classes:           classes,
		MeanRate:          spec.meanRate,
		Duration:          duration,
		ProbesPerWindow:   spec.probes,
		Noise:             spec.noise,
		PlansPerWindow:    spec.plansPerWindow,
		PlanLevels:        spec.planLevels,
		RegisterOnArrival: true,
	}
}

// rename prefixes tenant names and shifts arrival times, in place.
func rename(evs []service.Event, prefix string, shift float64) []service.Event {
	for i := range evs {
		evs[i].Tenant = prefix + evs[i].Tenant
		evs[i].At += shift
	}
	return evs
}

// stagger delays each tenant's whole stream by an offset drawn uniformly
// from [0, spread) (per tenant, in name order, from seed) and drops what then
// falls past the end of the phase.
func stagger(evs []service.Event, seed int64, spread, duration float64) []service.Event {
	var names []string
	offset := map[string]float64{}
	for _, ev := range evs {
		if _, ok := offset[ev.Tenant]; !ok {
			offset[ev.Tenant] = 0
			names = append(names, ev.Tenant)
		}
	}
	sort.Strings(names)
	rng := rand.New(rand.NewSource(seed))
	for _, n := range names {
		offset[n] = rng.Float64() * spread
	}
	out := evs[:0]
	for _, ev := range evs {
		ev.At += offset[ev.Tenant]
		if ev.At < duration {
			out = append(out, ev)
		}
	}
	sort.SliceStable(out, func(a, b int) bool { return out[a].At < out[b].At })
	return out
}

// dropIdle removes the registrations of tenants that never report a window.
func dropIdle(evs []service.Event) []service.Event {
	active := make(map[string]bool)
	for _, ev := range evs {
		if ev.Kind == service.EvObserve {
			active[ev.Tenant] = true
		}
	}
	out := evs[:0]
	for _, ev := range evs {
		if active[ev.Tenant] {
			out = append(out, ev)
		}
	}
	return out
}
