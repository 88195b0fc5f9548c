package persist

import (
	"hash/crc32"

	"leo/internal/core"
	"leo/internal/matrix"
)

// Wire framing shared by snapshots and journal records: an 8-byte magic, a
// format version byte, then a CRC-32C (Castagnoli — hardware-accelerated on
// both amd64 and arm64) over the payload. A snapshot whose checksum does not
// match is indistinguishable from a torn write and is treated the same way:
// fall back to the previous generation.
//
// Version 2 carries each warm posterior's Σ in its frame (α, Ω, Q, Σ′ — see
// core.SessionState) instead of a dense n×n Σ. A version-1 snapshot is
// refused as unsupported, which both recovery paths treat like a damaged
// one: they replay the never-truncated journal from sequence 0.
const (
	snapMagic    = "LEOSNAP\x01"
	snapVersion  = 2
	maxSnapName  = 4096    // session names are controller-chosen, short
	maxSnapBytes = 1 << 30 // refuse absurd snapshots outright
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// SessionEntry is one named estimator's persisted state. Digest is the
// fingerprint of the core.Prior the session was opened from: restore refuses
// to feed a posterior fitted against one prior into a session derived from a
// different one (see core.Prior.Digest).
type SessionEntry struct {
	Name   string
	Digest uint64
	State  *core.SessionState
}

// ControllerState is the controller-level planning state captured alongside
// the sessions: the estimate vectors the planner consumes and the probe
// observations behind them. Restoring it lets a recovered controller plan
// immediately — without a fresh calibration window — even when the journal
// records covering the snapshot have been lost to corruption.
type ControllerState struct {
	Perf    []float64
	Power   []float64
	ObsIdx  []int
	ObsPerf []float64
}

// Snapshot is the durable image of the estimation state at a point in time:
// every live session plus Seq, the number of journaled windows already
// folded into those sessions. Journal records with Seq greater than this are
// replayed on top during recovery; records at or below it are already
// reflected and are skipped. Rung records where on the degradation ladder
// the sessions were fitted, so recovery resumes at the same tier.
type Snapshot struct {
	Seq        uint64
	Rung       int
	Controller *ControllerState
	Sessions   []SessionEntry
}

// EncodeSnapshot renders the snapshot into its wire form:
//
//	magic(8) version(1) crc32c(4) payloadLen(4) payload
//
// The checksum covers the payload only — the header fields are validated
// structurally.
func EncodeSnapshot(s *Snapshot) []byte {
	var p enc
	p.u64(s.Seq)
	p.u64(uint64(int64(s.Rung)))
	encodeControllerState(&p, s.Controller)
	p.u32(uint32(len(s.Sessions)))
	for _, se := range s.Sessions {
		p.str(se.Name)
		p.u64(se.Digest)
		encodeSessionState(&p, se.State)
	}

	var out enc
	out.buf = append(out.buf, snapMagic...)
	out.u8(snapVersion)
	out.u32(crc32.Checksum(p.buf, castagnoli))
	out.u32(uint32(len(p.buf)))
	out.buf = append(out.buf, p.buf...)
	return out.buf
}

// DecodeSnapshot parses and verifies a snapshot produced by EncodeSnapshot.
// Any malformation — wrong magic, unknown version, bad checksum, truncated
// or trailing bytes, impossible lengths — returns an *ErrCorrupt; the
// decoder never panics regardless of input.
func DecodeSnapshot(b []byte) (*Snapshot, error) {
	if len(b) > maxSnapBytes {
		return nil, corrupt("snapshot", "size %d exceeds limit", len(b))
	}
	d := &dec{buf: b, what: "snapshot"}
	magic := d.take(len(snapMagic))
	if d.err != nil {
		return nil, d.err
	}
	if string(magic) != snapMagic {
		return nil, corrupt("snapshot", "bad magic %q", magic)
	}
	if v := d.u8(); d.err == nil && v != snapVersion {
		return nil, corrupt("snapshot", "unsupported version %d", v)
	}
	sum := d.u32()
	plen := int(d.u32())
	if d.err != nil {
		return nil, d.err
	}
	payload := d.take(plen)
	if d.err != nil {
		return nil, d.err
	}
	if d.remaining() != 0 {
		return nil, corrupt("snapshot", "%d trailing bytes", d.remaining())
	}
	if got := crc32.Checksum(payload, castagnoli); got != sum {
		return nil, corrupt("snapshot", "checksum mismatch: %08x != %08x", got, sum)
	}

	p := &dec{buf: payload, what: "snapshot payload"}
	s := &Snapshot{Seq: p.u64(), Rung: int(int64(p.u64()))}
	s.Controller = decodeControllerState(p)
	count := int(p.u32())
	if p.err != nil {
		return nil, p.err
	}
	// Each session entry is at least name-len + digest + the state's fixed
	// fields; a cheap floor that stops a flipped count from preallocating.
	if count < 0 || count > p.remaining() {
		return nil, corrupt("snapshot payload", "session count %d exceeds remaining %d bytes", count, p.remaining())
	}
	for i := 0; i < count; i++ {
		var se SessionEntry
		se.Name = p.str(maxSnapName)
		se.Digest = p.u64()
		se.State = decodeSessionState(p)
		if p.err != nil {
			return nil, p.err
		}
		s.Sessions = append(s.Sessions, se)
	}
	if p.remaining() != 0 {
		return nil, corrupt("snapshot payload", "%d trailing bytes", p.remaining())
	}
	return s, nil
}

func encodeControllerState(p *enc, cs *ControllerState) {
	if cs == nil {
		p.bool(false) // present flag
		return
	}
	p.bool(true)
	p.f64s(cs.Perf)
	p.f64s(cs.Power)
	p.ints(cs.ObsIdx)
	p.f64s(cs.ObsPerf)
}

func decodeControllerState(p *dec) *ControllerState {
	present := p.bool()
	if p.err != nil || !present {
		return nil
	}
	cs := &ControllerState{}
	cs.Perf = p.f64s()
	cs.Power = p.f64s()
	cs.ObsIdx = p.ints()
	cs.ObsPerf = p.f64s()
	if p.err != nil {
		return nil
	}
	return cs
}

func encodeSessionState(p *enc, st *core.SessionState) {
	if st == nil {
		p.bool(false) // present flag
		return
	}
	p.bool(true)
	p.bool(st.Warm)
	p.f64s(st.Mu)
	p.f64(st.Alpha)
	p.ints(st.Omega)
	encodeMatrix(p, st.Q)
	encodeMatrix(p, st.SigmaFrame)
	p.f64(st.Sigma2)
	p.ints(st.ObsIdx)
	p.f64s(st.ObsVal)
}

func decodeSessionState(p *dec) *core.SessionState {
	present := p.bool()
	if p.err != nil || !present {
		return nil
	}
	st := &core.SessionState{}
	st.Warm = p.bool()
	st.Mu = p.f64s()
	st.Alpha = p.f64()
	st.Omega = p.ints()
	st.Q = decodeMatrix(p)
	st.SigmaFrame = decodeMatrix(p)
	st.Sigma2 = p.f64()
	st.ObsIdx = p.ints()
	st.ObsVal = p.f64s()
	if p.err != nil {
		return nil
	}
	return st
}

func encodeMatrix(p *enc, m *matrix.Matrix) {
	if m == nil {
		p.u32(0)
		p.u32(0)
		return
	}
	p.u32(uint32(m.Rows))
	p.u32(uint32(m.Cols))
	for _, v := range m.Data {
		p.f64(v)
	}
}

func decodeMatrix(p *dec) *matrix.Matrix {
	rows := int(p.u32())
	cols := int(p.u32())
	if p.err != nil {
		return nil
	}
	if rows == 0 && cols == 0 {
		return nil
	}
	if rows < 0 || cols < 0 || rows > p.remaining() || cols > p.remaining() ||
		rows*cols*8 > p.remaining() {
		p.fail("matrix %dx%d exceeds remaining %d bytes", rows, cols, p.remaining())
		return nil
	}
	m := matrix.New(rows, cols)
	for i := range m.Data {
		m.Data[i] = p.f64()
	}
	return m
}
