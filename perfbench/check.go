package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/url"
	"sort"

	"leo/internal/pareto"
	"leo/internal/service"
	"leo/internal/stats"
)

// estimate is a tenant's /v1/estimate reply.
type estimate struct {
	Perf      []float64 `json:"perf"`
	Power     []float64 `json:"power"`
	IdlePower float64   `json:"idle_power"`
	Rung      string    `json:"rung"`
	Windows   int       `json:"windows"`
}

// planReply is the /v1/plan wire form.
type planReply struct {
	Allocations []pareto.Allocation `json:"allocations"`
	IdleTime    float64             `json:"idle_time"`
	Energy      float64             `json:"energy"`
	Rate        float64             `json:"rate"`
	Rung        string              `json:"rung"`
}

// checked summarizes the correctness checks and the quality of what was
// served.
type checked struct {
	tenants, plans    int
	accPerf, accPower float64
	energyRatio       float64
	estimates         map[string]*estimate
}

// checkServed fetches every tenant's final estimates and requires that they
// are finite and that every plan the tenant was served after its last
// window equals, bit for bit, a fresh pareto plan over those estimates (the
// cached ≡ fresh and HTTP ≡ controller contracts). It also scores the
// estimates against ground truth (Eq. 5) and the served plans' true energy
// per heartbeat against the optimal plan's.
func checkServed(env *serveEnv, tenants map[string]*tenantLog, classes []service.TrafficClass) (*checked, error) {
	truth := map[string]service.TrafficClass{}
	for _, c := range classes {
		truth[c.Name] = c
	}
	names := make([]string, 0, len(tenants))
	for n, t := range tenants {
		if t.windows > 0 {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, checkFailed("no tenant had a window accepted")
	}
	client := newSenderClient()
	out := &checked{estimates: map[string]*estimate{}}
	var accP, accQ, ratios []float64
	for _, name := range names {
		t := tenants[name]
		est, err := fetchEstimate(client, env.base, name)
		if err != nil {
			return nil, err
		}
		if est.Windows != t.windows {
			return nil, checkFailed("tenant %s: server folded %d windows, client saw %d accepted", name, est.Windows, t.windows)
		}
		for i := range est.Perf {
			if !finite(est.Perf[i]) || !finite(est.Power[i]) {
				return nil, checkFailed("tenant %s: non-finite estimate at configuration %d", name, i)
			}
		}
		out.estimates[name] = est
		tc := truth[t.class]
		if len(est.Perf) != len(tc.PerfTruth) || len(est.Power) != len(tc.PowerTruth) {
			return nil, checkFailed("tenant %s: estimate covers %d configurations, space has %d", name, len(est.Perf), len(tc.PerfTruth))
		}
		accP = append(accP, stats.Accuracy(est.Perf, tc.PerfTruth))
		accQ = append(accQ, stats.Accuracy(est.Power, tc.PowerTruth))
		var last *planReply
		for _, pr := range t.finalPlans {
			got := &planReply{}
			if err := json.Unmarshal(pr.body, got); err != nil {
				return nil, checkFailed("tenant %s: undecodable plan reply %q", name, pr.body)
			}
			want, err := freshPlan(est, pr.work, pr.deadline)
			if err != nil {
				return nil, checkFailed("tenant %s: fresh plan for work %g: %v", name, pr.work, err)
			}
			if !samePlan(got, want) {
				return nil, checkFailed("tenant %s: served plan for work %g differs from a fresh plan over its estimates", name, pr.work)
			}
			out.plans++
			last = got
		}
		if last != nil {
			pr := t.finalPlans[len(t.finalPlans)-1]
			if r, ok := energyOverOptimal(last, tc, est.IdlePower, pr.work, pr.deadline); ok {
				ratios = append(ratios, r)
			}
		}
	}
	out.tenants = len(names)
	out.accPerf, out.accPower, out.energyRatio = mean(accP), mean(accQ), mean(ratios)
	return out, nil
}

func fetchEstimate(client *http.Client, base, tenant string) (*estimate, error) {
	resp, err := client.Get(base + "/v1/estimate?tenant=" + url.QueryEscape(tenant))
	if err != nil {
		return nil, fmt.Errorf("fetching estimate: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, checkFailed("tenant %s: estimate status %d", tenant, resp.StatusCode)
	}
	var est estimate
	if err := json.NewDecoder(resp.Body).Decode(&est); err != nil {
		return nil, checkFailed("tenant %s: undecodable estimate: %v", tenant, err)
	}
	return &est, nil
}

// freshPlan plans (work, deadline) from scratch over served estimates,
// falling back to the believed-fastest configuration run flat out when the
// estimates call the demand infeasible — the serving path's rule.
func freshPlan(est *estimate, work, deadline float64) (*pareto.Plan, error) {
	pl, err := pareto.NewPlanner(est.Perf, est.Power, est.IdlePower)
	if err != nil {
		return nil, err
	}
	var plan pareto.Plan
	if _, err := pl.MinimizeEnergyInto(work, deadline, &plan); err == nil {
		return &plan, nil
	}
	best, bestIdx := 0.0, -1
	for i, v := range est.Perf {
		if v > best && !math.IsInf(v, 1) {
			best, bestIdx = v, i
		}
	}
	if bestIdx < 0 {
		return nil, fmt.Errorf("no usable configuration")
	}
	return &pareto.Plan{
		Allocations: []pareto.Allocation{{Index: bestIdx, Time: deadline}},
		Rate:        work / deadline,
		Energy:      est.Power[bestIdx] * deadline,
	}, nil
}

func samePlan(got *planReply, want *pareto.Plan) bool {
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	if len(got.Allocations) != len(want.Allocations) ||
		!same(got.IdleTime, want.IdleTime) || !same(got.Energy, want.Energy) || !same(got.Rate, want.Rate) {
		return false
	}
	for i, a := range got.Allocations {
		if a.Index != want.Allocations[i].Index || !same(a.Time, want.Allocations[i].Time) {
			return false
		}
	}
	return true
}

// energyOverOptimal compares the true energy per heartbeat of a served plan
// with that of the optimal plan for the same demand over ground truth.
func energyOverOptimal(got *planReply, tc service.TrafficClass, idle, work, deadline float64) (float64, bool) {
	served := pareto.Plan{Allocations: got.Allocations, IdleTime: got.IdleTime}
	w := served.Work(tc.PerfTruth)
	opt, err := pareto.MinimizeEnergy(tc.PerfTruth, tc.PowerTruth, idle, work, deadline)
	if err != nil || w <= 0 {
		return 0, false
	}
	return (served.TrueEnergy(tc.PowerTruth, idle) / w) / (opt.TrueEnergy(tc.PowerTruth, idle) / work), true
}

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }
