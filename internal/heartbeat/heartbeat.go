// Package heartbeat implements an Application Heartbeats monitor in the
// style of Hoffmann et al. (ICAC 2010), the instrumentation the paper uses
// for application-specific performance feedback (§6.1). Applications issue
// heartbeats at work milestones (a frame rendered, a batch clustered); the
// monitor keeps the time of the newest batch, which is what a watchdog for
// stuck or stale heartbeat sensors reads.
//
// Time is supplied by the caller as float64 seconds so the monitor works
// identically under simulated and wall-clock time.
package heartbeat

import (
	"fmt"
)

// Monitor records when the most recent heartbeat batch arrived. The zero
// value has no beats registered.
type Monitor struct {
	lastTime float64
	started  bool
}

// Heartbeat registers count heartbeats at the given time (seconds); count
// must be positive. Batches may arrive out of order (a delayed delivery on a
// real system): a timestamp earlier than the newest already registered is
// clamped to it, so the newest time never moves backwards.
func (m *Monitor) Heartbeat(now float64, count int64) {
	if count <= 0 {
		panic(fmt.Sprintf("heartbeat: count must be positive, got %d", count))
	}
	if !m.started || now > m.lastTime {
		m.lastTime = now
	}
	m.started = true
}

// LastTime returns the timestamp of the most recent beat and whether any
// beat has been registered at all.
func (m *Monitor) LastTime() (float64, bool) {
	return m.lastTime, m.started
}

// Reset clears all state, e.g. at a phase boundary.
func (m *Monitor) Reset() {
	m.lastTime = 0
	m.started = false
}
