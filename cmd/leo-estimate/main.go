// Command leo-estimate runs one leave-one-out estimation: it treats the
// named benchmark as never-before-seen, samples a few of its configurations,
// estimates power and performance everywhere with the chosen approach, and
// reports accuracy against exhaustive-search ground truth.
//
// Usage:
//
//	leo-estimate [-app kmeans] [-estimator LEO|Online|Offline|Exhaustive]
//	             [-size small|full] [-samples 20] [-seed 1] [-dump]
//	             [-timeout 30s]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/signal"
	"syscall"

	"leo"
	"leo/internal/cli"
)

func main() {
	var (
		appName   = flag.String("app", "kmeans", "target benchmark (see -apps)")
		estimator = flag.String("estimator", "LEO", "LEO, Online, Offline or Exhaustive")
		size      = flag.String("size", "small", "small (128 configs) or full (1024 configs)")
		samples   = flag.Int("samples", 20, "online observations")
		seed      = flag.Int64("seed", 1, "random seed")
		noise     = flag.Float64("noise", 0.01, "relative measurement noise")
		dump      = flag.Bool("dump", false, "print every configuration's estimate")
		listApps  = flag.Bool("apps", false, "list benchmark names and exit")
		timeout   = flag.Duration("timeout", 0, "abort the run after this long (0 = no limit)")
	)
	obs := cli.RegisterObservability(flag.CommandLine, false)
	flag.Parse()
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

	if *listApps {
		for _, name := range leo.BenchmarkNames() {
			fmt.Println(name)
		}
		return
	}

	space := leo.SmallSpace()
	if *size == "full" {
		space = leo.PaperSpace()
	} else if *size != "small" {
		fatal(fmt.Errorf("unknown size %q", *size))
	}
	db, err := leo.CollectProfiles(space, leo.Benchmarks(), 0, nil)
	if err != nil {
		fatal(err)
	}
	target, err := db.AppIndex(*appName)
	if err != nil {
		fatal(err)
	}
	rest, truePerf, truePower, err := db.LeaveOneOut(target)
	if err != nil {
		fatal(err)
	}

	rng := rand.New(rand.NewSource(*seed))
	mask := leo.RandomMask(space.N(), *samples, rng)

	for _, metric := range []struct {
		name  string
		known *leo.Matrix
		truth []float64
	}{
		{"performance", rest.Perf, truePerf},
		{"power", rest.Power, truePower},
	} {
		var est leo.Estimator
		switch *estimator {
		case "LEO":
			est = leo.NewLEOEstimator(metric.known, leo.ModelOptions{})
		case "Online":
			est = leo.NewOnlineEstimator(space)
		case "Offline":
			est, err = leo.NewOfflineEstimator(metric.known)
			if err != nil {
				fatal(err)
			}
		case "Exhaustive":
			est = leo.NewExhaustiveEstimator(metric.truth)
		default:
			fatal(fmt.Errorf("unknown estimator %q", *estimator))
		}
		obs := leo.Observe(metric.truth, mask, *noise, rng)
		// Estimate through a fresh session so the fit honors ctx: the first
		// Update of a session is exactly the cold one-shot fit, but a SIGINT
		// (or -timeout) aborts the EM loop mid-fit instead of hanging.
		sess, err := est.NewSession(ctx)
		if err != nil {
			fatal(fmt.Errorf("%s %s estimation: %w", *estimator, metric.name, err))
		}
		pred, err := sess.Update(ctx, obs.Indices, obs.Values)
		if err != nil {
			if errors.Is(err, leo.ErrEstimationCanceled) || ctx.Err() != nil {
				fmt.Fprintf(os.Stderr, "leo-estimate: %s estimation canceled (%v)\n", metric.name, context.Cause(ctx))
				os.Exit(130)
			}
			fatal(fmt.Errorf("%s %s estimation: %w", *estimator, metric.name, err))
		}
		fmt.Printf("%s %s accuracy on %s: %.4f (%d samples of %d configurations)\n",
			*estimator, metric.name, *appName, leo.Accuracy(pred, metric.truth), *samples, space.N())
		if *dump {
			for i, v := range pred {
				fmt.Printf("  config %4d: estimated %10.3f  true %10.3f\n", i, v, metric.truth[i])
			}
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "leo-estimate:", err)
	os.Exit(1)
}
