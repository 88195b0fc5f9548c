// Package fault is a deterministic fault-injection substrate for the machine
// simulator. The paper's testbed (§6.1) is cooperative — the WattsUp meter
// always reports, heartbeats always arrive, and cpufrequtils/numactl
// actuations always land — but a production runtime must survive sensor
// dropouts, stuck readings, lost or duplicated heartbeat batches, failed or
// silently dropped reconfigurations, and offlined cores. A Plan models all of
// these as independent per-event Bernoulli draws from a seeded generator, so
// a given (seed, call sequence) reproduces the exact same fault schedule —
// chaos tests stay deterministic.
//
// A nil *Plan is valid everywhere and injects nothing; the machine simulator
// therefore pays a single nil check per instrument access when fault
// injection is disabled, and behaves bit-identically to the fault-free
// simulator.
package fault

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Kind enumerates the injectable fault classes.
type Kind int

const (
	// PowerDropout: the wall-power meter misses a reading (NaN delivered).
	PowerDropout Kind = iota
	// PowerStuck: the meter repeats its previous reading instead of a fresh
	// sample (a wedged sensor daemon).
	PowerStuck
	// SensorSpike: a transient multiplicative spike corrupts a reading
	// (electrical noise, a mis-parsed sample).
	SensorSpike
	// HeartbeatLoss: a heartbeat batch is dropped before the monitor sees it.
	HeartbeatLoss
	// HeartbeatDup: a heartbeat batch is delivered twice (retried RPC).
	HeartbeatDup
	// ActuationFail: a configuration change errors out visibly (cpufrequtils
	// exiting non-zero).
	ActuationFail
	// ActuationDrop: a configuration change reports success but never lands
	// (lost settings write) — only heartbeat feedback can reveal it.
	ActuationDrop
	// ConfigBlacklist counts actuations rejected because the target
	// configuration is statically blacklisted (offlined cores). It has no
	// rate; membership comes from Spec.Blacklist.
	ConfigBlacklist

	// The crash/corruption kinds below model storage and process failures
	// rather than per-event sensor faults. They have no Bernoulli rate and
	// never fire from a Plan; chaos tests inject them directly with
	// FlipBit, TruncateTail, and CrashPoint (crash.go) and use the Kind only
	// to name what was injected in reports.

	// SnapshotBitFlip: a persisted snapshot suffers silent media corruption
	// (one flipped bit), which the persist layer must detect by checksum.
	SnapshotBitFlip
	// JournalTruncation: the tail of the write-ahead journal is lost (torn
	// write at power cut); recovery must keep the clean prefix.
	JournalTruncation
	// KillBetweenWindows: the runtime process dies between control windows
	// (SIGKILL, OOM) and restarts from persisted state.
	KillBetweenWindows

	numKinds
)

// String names the fault kind for reports.
func (k Kind) String() string {
	switch k {
	case PowerDropout:
		return "power-dropout"
	case PowerStuck:
		return "power-stuck"
	case SensorSpike:
		return "sensor-spike"
	case HeartbeatLoss:
		return "heartbeat-loss"
	case HeartbeatDup:
		return "heartbeat-dup"
	case ActuationFail:
		return "actuation-fail"
	case ActuationDrop:
		return "actuation-drop"
	case ConfigBlacklist:
		return "config-blacklist"
	case SnapshotBitFlip:
		return "snapshot-bit-flip"
	case JournalTruncation:
		return "journal-truncation"
	case KillBetweenWindows:
		return "kill-between-windows"
	default:
		return fmt.Sprintf("fault.Kind(%d)", int(k))
	}
}

// Kinds lists the probabilistic fault kinds (everything with a rate).
func Kinds() []Kind {
	return []Kind{PowerDropout, PowerStuck, SensorSpike, HeartbeatLoss, HeartbeatDup, ActuationFail, ActuationDrop}
}

// DefaultSpikeFactor scales a reading hit by a SensorSpike.
const DefaultSpikeFactor = 8.0

// Spec configures a fault plan.
type Spec struct {
	// Rates holds the per-event probability of each fault kind, in [0,1].
	// Kinds absent from the map never fire.
	Rates map[Kind]float64
	// Blacklist lists configuration indices whose actuation always fails,
	// modeling offlined cores or forbidden P-states.
	Blacklist []int
	// SpikeFactor multiplies a reading hit by SensorSpike (default
	// DefaultSpikeFactor).
	SpikeFactor float64
}

// Uniform returns a Spec with every probabilistic fault kind firing at rate.
func Uniform(rate float64) Spec {
	rates := make(map[Kind]float64, numKinds)
	for _, k := range Kinds() {
		rates[k] = rate
	}
	return Spec{Rates: rates}
}

// Plan is an installed fault schedule. All methods are safe on a nil plan,
// which injects nothing.
type Plan struct {
	rng       *rand.Rand
	rates     [numKinds]float64
	blacklist map[int]bool
	spike     float64
	active    bool

	lastPower float64
	havePower bool
	counts    [numKinds]int64
}

// New builds a plan from a seed and spec. Rates outside [0,1] are rejected.
func New(seed int64, spec Spec) (*Plan, error) {
	p := &Plan{rng: rand.New(rand.NewSource(seed)), spike: spec.SpikeFactor}
	if p.spike <= 0 {
		p.spike = DefaultSpikeFactor
	}
	for k, r := range spec.Rates {
		if k < 0 || k >= numKinds {
			return nil, fmt.Errorf("fault: unknown kind %d", int(k))
		}
		if r < 0 || r > 1 {
			return nil, fmt.Errorf("fault: rate %g for %s outside [0,1]", r, k)
		}
		p.rates[k] = r
		if r > 0 {
			p.active = true
		}
	}
	if len(spec.Blacklist) > 0 {
		p.blacklist = make(map[int]bool, len(spec.Blacklist))
		for _, idx := range spec.Blacklist {
			p.blacklist[idx] = true
		}
		p.active = true
	}
	return p, nil
}

// Active reports whether the plan can inject anything at all. A nil or
// all-zero plan is inactive, and instruments short-circuit around it.
func (p *Plan) Active() bool { return p != nil && p.active }

// fire draws one Bernoulli event for kind k, counting it when it fires.
func (p *Plan) fire(k Kind) bool {
	r := p.rates[k]
	if r <= 0 {
		return false
	}
	if p.rng.Float64() >= r {
		return false
	}
	p.counts[k]++
	return true
}

// Actuation is the outcome of a configuration-change attempt.
type Actuation int

const (
	// ActOK: the actuation lands.
	ActOK Actuation = iota
	// ActFail: the actuation errors out visibly; the caller may retry.
	ActFail
	// ActDrop: the actuation reports success but does not land.
	ActDrop
)

// Actuate decides the fate of an actuation targeting configuration idx.
// Blacklisted configurations always fail.
func (p *Plan) Actuate(idx int) Actuation {
	if !p.Active() {
		return ActOK
	}
	if p.blacklist[idx] {
		p.counts[ConfigBlacklist]++
		return ActFail
	}
	if p.fire(ActuationFail) {
		return ActFail
	}
	if p.fire(ActuationDrop) {
		return ActDrop
	}
	return ActOK
}

// Power filters one wall-power reading: dropout delivers NaN, a stuck meter
// repeats the previous delivered reading, a spike multiplies the value.
func (p *Plan) Power(v float64) float64 {
	if !p.Active() {
		return v
	}
	switch {
	case p.fire(PowerDropout):
		return math.NaN()
	case p.fire(PowerStuck) && p.havePower:
		return p.lastPower
	case p.fire(SensorSpike):
		v *= p.spike
	}
	p.lastPower = v
	p.havePower = true
	return v
}

// Perf filters one heartbeat-rate reading: a lost batch reads as zero, a
// duplicated batch doubles it, a spike multiplies it.
func (p *Plan) Perf(v float64) float64 {
	if !p.Active() {
		return v
	}
	v = p.scaleBeats(v)
	if v > 0 && p.fire(SensorSpike) {
		v *= p.spike
	}
	return v
}

// Heartbeats filters a heartbeat batch of n beats on its way to the monitor:
// loss drops it (0), duplication doubles it. Spikes do not apply — batch
// counts are integers from the application, not analog readings.
func (p *Plan) Heartbeats(n float64) float64 {
	if !p.Active() {
		return n
	}
	return p.scaleBeats(n)
}

// scaleBeats applies the heartbeat delivery faults: loss, else duplication.
func (p *Plan) scaleBeats(v float64) float64 {
	switch {
	case p.fire(HeartbeatLoss):
		return 0
	case p.fire(HeartbeatDup):
		v *= 2
	}
	return v
}

// Counts returns the number of faults injected so far, per kind (only kinds
// that fired appear).
func (p *Plan) Counts() map[Kind]int64 {
	if p == nil {
		return nil
	}
	out := make(map[Kind]int64)
	for k, n := range p.counts {
		if n > 0 {
			out[Kind(k)] = n
		}
	}
	return out
}

// Total returns the total number of faults injected so far.
func (p *Plan) Total() int64 {
	if p == nil {
		return 0
	}
	var sum int64
	for _, n := range p.counts {
		sum += n
	}
	return sum
}

// Summary renders the fault counts as a stable, human-readable line.
func (p *Plan) Summary() string {
	counts := p.Counts()
	if len(counts) == 0 {
		return "no faults injected"
	}
	kinds := make([]Kind, 0, len(counts))
	for k := range counts {
		kinds = append(kinds, k)
	}
	sort.Slice(kinds, func(a, b int) bool { return kinds[a] < kinds[b] })
	out := ""
	for i, k := range kinds {
		if i > 0 {
			out += " "
		}
		out += fmt.Sprintf("%s=%d", k, counts[k])
	}
	return out
}
