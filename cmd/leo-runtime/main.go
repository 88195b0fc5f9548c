// Command leo-runtime simulates the full energy-aware runtime on one
// benchmark: calibrate, estimate, plan on the Pareto hull, and execute a job
// under heartbeat feedback, reporting energy against the optimal and
// race-to-idle references.
//
// Usage:
//
//	leo-runtime [-app kmeans] [-utilization 0.5] [-deadline 10]
//	            [-size small|full] [-seed 1] [-phased]
//	            [-fault-rate 0.1] [-fault-seed 7]
//
// With -phased it runs the application's phase schedule (the §6.6
// experiment) instead of a single job.
//
// With -fault-rate > 0 a deterministic fault plan (seeded by -fault-seed)
// injects sensor dropouts, heartbeat loss/duplication and actuation failures
// at the given per-event probability; the LEO controller then runs with its
// full degradation ladder (LEO → Online → Offline → race-to-idle) and each
// run prints the injected-fault counts and a degradation report.
//
// With -state-dir the binary instead runs the crash-safe LEO service mode:
// recover estimation state from the directory (snapshot + journal replay),
// calibrate until -windows windows are journaled, print the resulting energy
// plan at full precision, and snapshot on exit — including on SIGTERM.
// -crash-after-windows simulates a SIGKILL between windows for chaos tests.
//
// With -serve the binary becomes the fleet estimation server (DESIGN.md
// §13): one class per benchmark (leave-one-out priors), tenants register
// and report probe windows over HTTP/JSON on -listen, and estimates and
// energy plans are served back bit-identically to an in-process controller.
// -shards and -max-sessions size the worker pool and the admission cap;
// -state-dir makes tenant state crash-safe per shard. SIGTERM drains every
// shard and snapshots before exiting.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"leo"
	"leo/internal/cli"
	"leo/internal/stream"
)

func main() {
	var (
		appName   = flag.String("app", "kmeans", "target benchmark")
		util      = flag.Float64("utilization", 0.5, "fraction of peak performance demanded (0,1]")
		deadline  = flag.Float64("deadline", 10, "job deadline, seconds")
		size      = flag.String("size", "small", "small (128 configs) or full (1024 configs)")
		seed      = flag.Int64("seed", 1, "random seed")
		noise     = flag.Float64("noise", 0.01, "relative measurement noise")
		phased    = flag.Bool("phased", false, "run the application's phase schedule (§6.6)")
		faultRate = flag.Float64("fault-rate", 0, "per-event probability of each fault kind (0 disables injection)")
		faultSeed = flag.Int64("fault-seed", 1, "seed of the deterministic fault schedule")
		workers   = flag.Int("workers", 0, "cores the matrix kernels may use (default: all; results are identical at any value)")
		timeout   = flag.Duration("timeout", 0, "abort the run after this long (0 = no limit)")

		stateDir   = flag.String("state-dir", "", "directory for crash-safe estimation state (switches to LEO-only service mode: recover, calibrate -windows windows, plan, snapshot)")
		windows    = flag.Int("windows", 5, "calibration windows to complete in -state-dir mode (already-journaled windows count)")
		crashAfter = flag.Int("crash-after-windows", 0, "chaos knob: exit(137) without snapshotting after this many windows journaled by this process (0 disables)")

		serve       = flag.Bool("serve", false, "run the fleet estimation HTTP server (one class per benchmark; -state-dir makes tenant state crash-safe)")
		listen      = flag.String("listen", "localhost:8080", "address the -serve HTTP API binds (host:port; port 0 picks a free one)")
		shards      = flag.Int("shards", 0, "single-writer worker shards in -serve mode (0 selects the default)")
		maxSessions = flag.Int("max-sessions", 0, "admitted-tenant cap in -serve mode (0 selects the default)")
	)
	obs := cli.RegisterObservability(flag.CommandLine, true)
	flag.Parse()
	kernelWorkers, err := cli.Workers(*workers)
	if err != nil {
		fatal(err)
	}
	// Scope -workers to the linear-algebra pool; resizing GOMAXPROCS would
	// throttle the whole process, not just the kernels the flag describes.
	leo.SetKernelWorkers(kernelWorkers)
	if _, err := obs.Start(); err != nil {
		fatal(err)
	}
	defer obs.Close()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	if *util <= 0 || *util > 1 {
		fatal(fmt.Errorf("utilization %g outside (0,1]", *util))
	}
	if *faultRate < 0 || *faultRate > 1 {
		fatal(fmt.Errorf("fault-rate %g outside [0,1]", *faultRate))
	}
	space := leo.SmallSpace()
	if *size == "full" {
		space = leo.PaperSpace()
	} else if *size != "small" {
		fatal(fmt.Errorf("unknown size %q", *size))
	}
	app, err := leo.Benchmark(*appName)
	if err != nil {
		fatal(err)
	}
	db, err := leo.CollectProfiles(space, leo.Benchmarks(), 0, nil)
	if err != nil {
		fatal(err)
	}
	target, err := db.AppIndex(*appName)
	if err != nil {
		fatal(err)
	}
	rest, truePerf, _, err := db.LeaveOneOut(target)
	if err != nil {
		fatal(err)
	}
	maxRate := 0.0
	for _, v := range truePerf {
		if v > maxRate {
			maxRate = v
		}
	}

	// -serve switches to the fleet estimation server: every benchmark becomes
	// a registrable class with its own leave-one-out priors, and the process
	// serves the tenant API until SIGTERM/SIGINT drains it.
	if *serve {
		addr, err := cli.Listen(*listen)
		if err != nil {
			fatal(err)
		}
		nShards, err := cli.Shards(*shards)
		if err != nil {
			fatal(err)
		}
		capSessions, err := cli.MaxSessions(*maxSessions)
		if err != nil {
			fatal(err)
		}
		serveFleet(ctx, space, db, addr, nShards, capSessions, *stateDir)
		return
	}

	// -state-dir switches to crash-safe service mode: the LEO approach only,
	// driven window by window. Each window's probe and measurement-noise
	// streams are reseeded from (seed, journaled-window index), so a process
	// restarted from the state directory replays journaled windows bit-
	// exactly and re-probes any missing ones with the very draws the original
	// process would have made — the recovery-equivalence contract the chaos
	// tests assert on the printed plan.
	if *stateDir != "" {
		if *windows < 1 {
			fatal(fmt.Errorf("windows %d < 1", *windows))
		}
		machRng := rand.New(rand.NewSource(0))
		ctrlRng := rand.New(rand.NewSource(0))
		mach, err := leo.NewMachine(space, app, *noise, machRng)
		if err != nil {
			fatal(err)
		}
		ctrl, err := leo.NewController("LEO", mach,
			leo.NewLEOEstimator(rest.Perf, leo.ModelOptions{}),
			leo.NewLEOEstimator(rest.Power, leo.ModelOptions{}),
			0, ctrlRng)
		if err != nil {
			fatal(err)
		}
		ctrl.SetEventLog(obs.Events())
		store, err := leo.OpenStateStore(*stateDir)
		if err != nil {
			fatal(err)
		}
		rep, err := ctrl.AttachStateStore(ctx, store)
		if err != nil {
			fatal(err)
		}
		if rep.Resumed {
			fmt.Printf("recovery: resumed snapshot_seq=%d restored=%d replayed=%d rung=%d\n",
				rep.SnapshotSeq, rep.RestoredSessions, rep.ReplayedWindows, rep.Rung)
		} else {
			fmt.Println("recovery: cold start")
		}
		if rep.Discarded != "" {
			fmt.Printf("recovery: discarded: %s\n", rep.Discarded)
		}
		snapshotAndExit := func(code int) {
			if err := ctrl.SnapshotState(); err != nil {
				fmt.Fprintln(os.Stderr, "leo-runtime: snapshot:", err)
				if code == 0 {
					code = 1
				}
			}
			store.Close()
			os.Exit(code)
		}
		mine := 0
		for journaled := int(store.LastSeq()); journaled < *windows; journaled = int(store.LastSeq()) {
			stream.ReseedWindow(machRng, ctrlRng, *seed, journaled)
			if err := ctrl.CalibrateContext(ctx); err != nil {
				if ctx.Err() != nil {
					// SIGTERM/SIGINT/timeout: persist what we have so the
					// next start resumes instead of re-probing.
					fmt.Fprintf(os.Stderr, "leo-runtime: interrupted (%v); snapshotting\n", context.Cause(ctx))
					snapshotAndExit(130)
				}
				fatal(err)
			}
			mine++
			fmt.Printf("window %d/%d\n", int(store.LastSeq()), *windows)
			if *crashAfter > 0 && mine == *crashAfter {
				// Simulated SIGKILL (fault.KillBetweenWindows): no snapshot,
				// no close — recovery gets only the journal.
				fmt.Printf("crash: simulated kill after %d windows (%s)\n", mine, leo.KillBetweenWindows)
				os.Exit(137)
			}
		}
		plan, err := ctrl.PlanContext(ctx, *util*maxRate**deadline, *deadline)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("plan: energy=%.17g rate=%.17g idle=%.17g\n", plan.Energy, plan.Rate, plan.IdleTime)
		for _, a := range plan.Allocations {
			fmt.Printf("plan: config=%d time=%.17g\n", a.Index, a.Time)
		}
		snapshotAndExit(0)
	}

	run := func(name string, estPerf, estPower leo.Estimator, stream int64) {
		mach, err := leo.NewMachine(space, app, *noise, rand.New(rand.NewSource(*seed+stream)))
		if err != nil {
			fatal(err)
		}
		var plan *leo.FaultPlan
		if *faultRate > 0 {
			plan, err = leo.NewFaultPlan(*faultSeed+stream, leo.UniformFaults(*faultRate))
			if err != nil {
				fatal(err)
			}
			mach.InstallFaults(plan)
		}
		ctrl, err := leo.NewController(name, mach, estPerf, estPower, 0, rand.New(rand.NewSource(*seed+stream+100)))
		if err != nil {
			fatal(err)
		}
		ctrl.SetEventLog(obs.Events())
		if plan != nil && name == "LEO" {
			// Under injected faults LEO runs with its full degradation
			// ladder, bottoming out in race-to-idle, which cannot fail.
			offPerf, err := leo.NewOfflineEstimator(rest.Perf)
			if err != nil {
				fatal(err)
			}
			offPower, err := leo.NewOfflineEstimator(rest.Power)
			if err != nil {
				fatal(err)
			}
			err = ctrl.AddFallbacks(
				leo.Tier{Name: "Online", Perf: leo.NewOnlineEstimator(space), Power: leo.NewOnlineEstimator(space)},
				leo.Tier{Name: "Offline", Perf: offPerf, Power: offPower},
				leo.Tier{Name: "race-to-idle"},
			)
			if err != nil {
				fatal(err)
			}
		}
		if *phased {
			res, err := ctrl.RunPhasedContext(ctx, leo.PhasedSpec{
				FrameWork: *util * maxRate * 2,
				FrameTime: 2,
			})
			if err != nil {
				if ctx.Err() != nil {
					canceled(ctx, name)
				}
				fatal(fmt.Errorf("%s: %w", name, err))
			}
			fmt.Printf("%-11s frames=%d replans=%d total=%.1f J phases=%v\n",
				name, len(res.Frames), res.Replans, res.TotalEnergy, fmtJoules(res.PhaseEnergy))
			if plan != nil {
				fmt.Printf("            injected: %s\n            degradation: %s\n",
					plan.Summary(), ctrl.Report())
			}
			return
		}
		job, err := ctrl.ExecuteJobContext(ctx, *util*maxRate**deadline, *deadline)
		if err != nil {
			if ctx.Err() != nil {
				canceled(ctx, name)
			}
			fatal(fmt.Errorf("%s: %w", name, err))
		}
		fmt.Printf("%-11s energy=%8.1f J  avg power=%6.1f W  work=%8.1f beats  deadline met=%v\n",
			name, job.Energy, job.AvgPower, job.Work, job.MetDeadline)
		if plan != nil {
			fmt.Printf("            tier=%s  injected: %s\n            degradation: %s\n",
				job.Tier, plan.Summary(), ctrl.Report())
		}
	}

	fmt.Printf("app=%s space=%d configs demand=%.0f%% of peak (%.1f beats/s) deadline=%.0fs\n\n",
		*appName, space.N(), *util*100, maxRate, *deadline)

	run("Optimal", leo.NewOracleEstimator(func() []float64 {
		// The oracle follows the current phase; for single-phase apps this
		// is simply the truth.
		return app.PhasePerfVector(space, 0)
	}), leo.NewOracleEstimator(func() []float64 {
		return app.PowerVector(space)
	}), 1)
	run("LEO",
		leo.NewLEOEstimator(rest.Perf, leo.ModelOptions{}),
		leo.NewLEOEstimator(rest.Power, leo.ModelOptions{}), 2)
	run("Online", leo.NewOnlineEstimator(space), leo.NewOnlineEstimator(space), 3)
	offPerf, err := leo.NewOfflineEstimator(rest.Perf)
	if err != nil {
		fatal(err)
	}
	offPower, err := leo.NewOfflineEstimator(rest.Power)
	if err != nil {
		fatal(err)
	}
	run("Offline", offPerf, offPower, 4)
	run("RaceToIdle", nil, nil, 5)
}

// serveFleet runs the estimation server until ctx is canceled (SIGTERM,
// SIGINT or -timeout), then drains every shard — snapshotting tenant state
// when stateDir is set — before exiting.
func serveFleet(ctx context.Context, space leo.Space, db *leo.Database, addr string, shards, maxSessions int, stateDir string) {
	classes := make([]leo.ServiceClass, 0, len(leo.Benchmarks()))
	for _, app := range leo.Benchmarks() {
		idx, err := db.AppIndex(app.Name)
		if err != nil {
			fatal(err)
		}
		rest, _, _, err := db.LeaveOneOut(idx)
		if err != nil {
			fatal(err)
		}
		perfPrior, err := leo.NewModelPrior(rest.Perf, leo.ModelOptions{})
		if err != nil {
			fatal(err)
		}
		powerPrior, err := leo.NewModelPrior(rest.Power, leo.ModelOptions{})
		if err != nil {
			fatal(err)
		}
		tiers, err := leo.StandardServiceLadder(space, perfPrior, powerPrior, rest.Perf, rest.Power)
		if err != nil {
			fatal(err)
		}
		classes = append(classes, leo.ServiceClass{Name: app.Name, Tiers: tiers, IdlePower: app.IdlePower})
	}
	srv, err := leo.NewEstimationServer(leo.ServiceConfig{
		Space:       space,
		Classes:     classes,
		Shards:      shards,
		MaxSessions: maxSessions,
		StateDir:    stateDir,
	})
	if err != nil {
		fatal(err)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		fatal(err)
	}
	// The bound-address line is the readiness handshake the serve-smoke test
	// (and any supervisor) waits for before sending traffic.
	fmt.Printf("serve: listening on %s classes=%d shards=%d\n", ln.Addr(), len(classes), srv.Shards())
	hs := &http.Server{Handler: srv.Handler()}
	go func() {
		<-ctx.Done()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = hs.Shutdown(shutdownCtx)
	}()
	if err := hs.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fatal(err)
	}
	closeCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Close(closeCtx); err != nil {
		fatal(err)
	}
	fmt.Println("serve: drained")
}

func fmtJoules(e []float64) []string {
	out := make([]string, len(e))
	for i, v := range e {
		out[i] = fmt.Sprintf("%.1fJ", v)
	}
	return out
}

func canceled(ctx context.Context, name string) {
	fmt.Fprintf(os.Stderr, "leo-runtime: %s canceled (%v)\n", name, context.Cause(ctx))
	os.Exit(130)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "leo-runtime:", err)
	os.Exit(1)
}
