// Command leo-profile manages offline profiling databases: collect one from
// the benchmark suite (the simulator's instant version of the paper's
// days-long exhaustive search), save it as JSON, and summarize saved
// databases.
//
// Usage:
//
//	leo-profile -collect -out profiles.json [-size small|full] [-noise 0.01] [-seed 1]
//	leo-profile -summarize profiles.json [-app kmeans]
package main

import (
	"context"
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
		collect   = flag.Bool("collect", false, "profile the benchmark suite and write a database")
		out       = flag.String("out", "profiles.json", "output path for -collect")
		size      = flag.String("size", "small", "small (128 configs) or full (1024 configs)")
		noise     = flag.Float64("noise", 0, "relative measurement noise during collection")
		seed      = flag.Int64("seed", 1, "random seed for noisy collection")
		summarize = flag.String("summarize", "", "path of a database to summarize")
		appName   = flag.String("app", "", "with -summarize: detail one application")
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

	switch {
	case *collect:
		if err := runCollect(ctx, *out, *size, *noise, *seed); err != nil {
			if ctx.Err() != nil {
				fmt.Fprintln(os.Stderr, "leo-profile: collection canceled:", context.Cause(ctx))
				os.Exit(130)
			}
			fatal(err)
		}
	case *summarize != "":
		if err := runSummarize(*summarize, *appName); err != nil {
			fatal(err)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func runCollect(ctx context.Context, out, size string, noise float64, seed int64) error {
	space := leo.SmallSpace()
	if size == "full" {
		space = leo.PaperSpace()
	} else if size != "small" {
		return fmt.Errorf("unknown size %q", size)
	}
	var rng *rand.Rand
	if noise > 0 {
		rng = rand.New(rand.NewSource(seed))
	}
	db, err := leo.CollectProfiles(space, leo.Benchmarks(), noise, rng)
	if err != nil {
		return err
	}
	// Collection is fast even at full size, so ctx is only consulted between
	// the collect and write steps: a cancellation never leaves a torn file.
	if err := ctx.Err(); err != nil {
		return err
	}
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := db.Save(f); err != nil {
		return err
	}
	fmt.Printf("profiled %d applications × %d configurations -> %s\n", db.NumApps(), space.N(), out)
	return nil
}

func runSummarize(path, appName string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	db, err := leo.LoadDatabase(f)
	if err != nil {
		return err
	}
	fmt.Printf("database: %d applications × %d configurations (threads=%d speeds=%d memctrls=%d)\n",
		db.NumApps(), db.Space.N(), db.Space.Threads, db.Space.Speeds, db.Space.MemCtrls)
	if appName == "" {
		fmt.Printf("applications: %v\n", db.Apps)
		return nil
	}
	idx, err := db.AppIndex(appName)
	if err != nil {
		return err
	}
	perf := db.Perf.Row(idx)
	power := db.Power.Row(idx)
	pMin, pMinAt := minAt(perf)
	pMax, pMaxAt := maxAt(perf)
	wMin, _ := minAt(power)
	wMax, _ := maxAt(power)
	fmt.Printf("%s:\n", appName)
	fmt.Printf("  performance: %.3f – %.3f heartbeats/s (worst config %d, best config %d)\n", pMin, pMax, pMinAt, pMaxAt)
	fmt.Printf("  best config: %v\n", db.Space.ConfigAt(pMaxAt))
	fmt.Printf("  power:       %.1f – %.1f W\n", wMin, wMax)
	fmt.Printf("  efficiency:  %.4f heartbeats/J at the best-performance config\n", pMax/power[pMaxAt])
	return nil
}

func minAt(xs []float64) (float64, int) {
	best, at := xs[0], 0
	for i, v := range xs {
		if v < best {
			best, at = v, i
		}
	}
	return best, at
}

func maxAt(xs []float64) (float64, int) {
	best, at := xs[0], 0
	for i, v := range xs {
		if v > best {
			best, at = v, i
		}
	}
	return best, at
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "leo-profile:", err)
	os.Exit(1)
}
