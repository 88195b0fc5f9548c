// Package cli holds the small pieces shared by the four leo binaries: flag
// validation (leo-experiments' sweep -workers, and leo-runtime's serve-mode
// trio -listen, -shards, -max-sessions) and the observability flag bundle
// (-metrics-addr, -metrics-dump, -events).
package cli

import (
	"flag"
	"fmt"
	"net"
	"os"

	"leo/internal/metrics"
)

// Workers validates leo-experiments' -workers flag value, the sweep
// drivers' task fan-out: negative counts are rejected with a clear error,
// zero selects GOMAXPROCS. Valid values are returned unchanged.
func Workers(v int) (int, error) {
	if v < 0 {
		return 0, fmt.Errorf("-workers must be >= 0 (0 selects the default), got %d", v)
	}
	return v, nil
}

// Listen validates the serve-mode -listen flag value: it must be a
// host:port address net.Listen accepts (the host may be empty to bind all
// interfaces, the port may be 0 for a kernel-assigned one). Valid values
// are returned unchanged.
func Listen(v string) (string, error) {
	if v == "" {
		return "", fmt.Errorf("-listen must be a host:port address (e.g. localhost:8080), got %q", v)
	}
	if _, _, err := net.SplitHostPort(v); err != nil {
		return "", fmt.Errorf("-listen must be a host:port address (e.g. localhost:8080): %w", err)
	}
	return v, nil
}

// Shards validates the serve-mode -shards flag value: negative counts are
// rejected, zero selects the service default. Valid values are returned
// unchanged.
func Shards(v int) (int, error) {
	if v < 0 {
		return 0, fmt.Errorf("-shards must be >= 0 (0 selects the default), got %d", v)
	}
	return v, nil
}

// MaxSessions validates the serve-mode -max-sessions flag value: negative
// caps are rejected, zero selects the service default. Valid values are
// returned unchanged.
func MaxSessions(v int) (int, error) {
	if v < 0 {
		return 0, fmt.Errorf("-max-sessions must be >= 0 (0 selects the default), got %d", v)
	}
	return v, nil
}

// Observability bundles the observe-only debug flags every binary exposes:
//
//	-metrics-addr ADDR  serve /metrics, /healthz and /debug/pprof/ on ADDR
//	-metrics-dump       print a JSON metrics snapshot to stderr on exit
//	-events FILE        (opt-in per binary) controller decision log, JSONL
//
// Register the bundle before flag parsing, Start it after, and Close it on
// the way out. Everything is off by default, so default-flag runs are
// byte-identical to an uninstrumented binary.
type Observability struct {
	addr   string
	dump   bool
	events string

	log *metrics.EventLog
}

// RegisterObservability registers -metrics-addr and -metrics-dump (plus
// -events when withEvents is set) on fs and returns the bundle.
func RegisterObservability(fs *flag.FlagSet, withEvents bool) *Observability {
	o := &Observability{}
	fs.StringVar(&o.addr, "metrics-addr", "",
		"serve /metrics, /healthz and /debug/pprof/ on this address (e.g. localhost:6060; empty disables)")
	fs.BoolVar(&o.dump, "metrics-dump", false,
		"print a JSON metrics snapshot to stderr on exit")
	if withEvents {
		fs.StringVar(&o.events, "events", "",
			"write controller decision events to this file as JSONL (empty disables)")
	}
	return o
}

// Start brings up whatever the parsed flags asked for: the event log under
// -events, then the debug HTTP endpoint under -metrics-addr. It returns the
// bound address (useful with a ":0" port), or "" when no server was
// requested. Call after flag parsing.
func (o *Observability) Start() (string, error) {
	if o.events != "" {
		log, err := metrics.OpenEventLog(o.events)
		if err != nil {
			return "", err
		}
		o.log = log
	}
	if o.addr == "" {
		return "", nil
	}
	return metrics.Serve(o.addr, nil)
}

// Events returns the event log opened by Start (nil unless -events was
// given — and Emit on nil is a no-op, so callers pass it through unchecked).
func (o *Observability) Events() *metrics.EventLog { return o.log }

// Close performs the bundle's exit work: the -metrics-dump snapshot to
// stderr (never stdout — experiment output must stay byte-identical) and
// closing the event log.
func (o *Observability) Close() {
	if o.dump {
		_ = metrics.Default().WriteJSON(os.Stderr)
	}
	_ = o.log.Close()
}
