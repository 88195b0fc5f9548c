package main

import "fmt"

// endToEnd lists every end-to-end metric an untraced run reports, with its
// unit; every workload reports all of them (README.md gives each workload's
// definition). Tail percentiles and closed-loop capacity are printed but
// not listed: README.md says why.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"plan_p50_ms", "ms"},
	{"observe_p50_ms", "ms"},
	{"first_plan_p50_ms", "ms"},
	{"success_rate", "ratio"},
	{"accuracy_perf", "ratio"},
	{"accuracy_power", "ratio"},
	{"energy_over_optimal", "ratio"},
	{"fit_p50_s", "s"},
	{"heap_mb", "MB"},
}

// perLayer lists every per-layer metric a traced run reports, with its
// unit. A metric that does not apply to a workload reads 0 there (README.md
// says which apply where).
var perLayer = []struct{ name, unit string }{
	{"transport.plan_ms_p50", "ms"},
	{"transport.observe_ms_p50", "ms"},
	{"client.lag_ms_p99", "ms"},
	{"traced.plan_p50_ms", "ms"},
	{"traced.observe_p50_ms", "ms"},
	{"service.plan_handler_ms_p50", "ms"},
	{"service.plan_handler_ms_p99", "ms"},
	{"service.observe_handler_ms_p50", "ms"},
	{"service.observe_handler_ms_p99", "ms"},
	{"service.register_handler_ms_p50", "ms"},
	{"service.plan_cache_hit_ratio", "ratio"},
	{"service.seed_transfer_ratio", "ratio"},
	{"service.batch_requests_mean", "count"},
	{"service.observe_overhead_ms_p50", "ms"},
	{"service.rejected_queue_full", "count"},
	{"service.rejected_canceled", "count"},
	{"service.shed_windows", "count"},
	{"service.estimation_failures", "count"},
	{"service.windows", "count"},
	{"control.filter_us_p50", "us"},
	{"control.validate_us_p50", "us"},
	{"control.sanitize_us_p50", "us"},
	{"control.calibrate_s_p50", "s"},
	{"control.plan_ms_p50", "ms"},
	{"core.new_session_us_p50", "us"},
	{"core.fit_batch_ms_per_window", "ms"},
	{"core.batch_sessions_per_pass", "count"},
	{"core.fits_cold", "count"},
	{"core.fits_warm", "count"},
	{"core.cold_fit_s_p50", "s"},
	{"core.em_iterations_per_fit", "count"},
	{"core.health_fallbacks", "count"},
	{"matrix.cholesky_ms", "ms"},
	{"matrix.cholesky.calls", "count"},
	{"matrix.inverse_ms", "ms"},
	{"matrix.inverse.calls", "count"},
	{"matrix.syrk_ms", "ms"},
	{"matrix.syrk.calls", "count"},
	{"matrix.gemm_ms", "ms"},
	{"matrix.gemm.calls", "count"},
	{"matrix.solve_ms", "ms"},
	{"matrix.solve.calls", "count"},
	{"matrix.append_ms", "ms"},
	{"matrix.append.calls", "count"},
	{"matrix.kernel_share", "ratio"},
	{"pareto.new_planner_us_p50", "us"},
	{"pareto.minimize_us_p50", "us"},
	{"persist.append_ms_p50", "ms"},
	{"persist.append_ms_p99", "ms"},
	{"persist.appends", "count"},
	{"setup.profile_s", "s"},
	{"setup.prior_s", "s"},
	{"setup.server_s", "s"},
	{"replay.window_ms_p50", "ms"},
	{"trace.residual_share", "ratio"},
}

// fillLayers reports 0 for every per-layer metric the workload does not
// measure, and rejects a metric missing from perLayer or in the wrong unit.
func fillLayers(l metricSet) error {
	known := make(map[string]string, len(perLayer))
	for _, p := range perLayer {
		known[p.name] = p.unit
		if _, ok := l[p.name]; !ok {
			l.add(p.name, 0, p.unit)
		}
	}
	for name, v := range l {
		unit, ok := known[name]
		if !ok {
			return fmt.Errorf("per-layer metric %s is not in the declared list", name)
		}
		if v.Unit != unit {
			return fmt.Errorf("per-layer metric %s has unit %s, declared %s", name, v.Unit, unit)
		}
	}
	return nil
}

// checkEndToEnd requires exactly the declared end-to-end metrics, each in
// its declared unit.
func checkEndToEnd(m metricSet) error {
	if len(m) != len(endToEnd) {
		return fmt.Errorf("run reported %d end-to-end metrics, %d are declared", len(m), len(endToEnd))
	}
	for _, e := range endToEnd {
		v, ok := m[e.name]
		if !ok {
			return fmt.Errorf("end-to-end metric %s was not reported", e.name)
		}
		if v.Unit != e.unit {
			return fmt.Errorf("end-to-end metric %s has unit %s, declared %s", e.name, v.Unit, e.unit)
		}
	}
	return nil
}
