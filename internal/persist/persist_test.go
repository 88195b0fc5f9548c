package persist

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"testing"

	"leo/internal/core"
	"leo/internal/matrix"
	"leo/internal/platform"
)

// sampleSnapshot covers both posterior frames: "perf" holds a subspace
// frame (n = 3, Ω = {2}, Q one column), "ident" an identity-frame Σ.
func sampleSnapshot() *Snapshot {
	sigma := matrix.Identity(3)
	sigma.Set(0, 1, 0.25)
	sigma.Set(1, 0, 0.25)
	sigmaFrame := matrix.Identity(2)
	sigmaFrame.Set(0, 1, -0.5)
	sigmaFrame.Set(1, 0, -0.5)
	q := matrix.New(3, 1)
	q.Set(0, 0, 0.6)
	q.Set(1, 0, 0.8)
	return &Snapshot{
		Seq:  7,
		Rung: 1,
		Controller: &ControllerState{
			Perf:    []float64{1, 0, 2.5},
			Power:   []float64{10, math.Inf(1), 30},
			ObsIdx:  []int{2},
			ObsPerf: []float64{2.5},
		},
		Sessions: []SessionEntry{
			{
				Name:   "perf",
				Digest: 0xdeadbeefcafef00d,
				State: &core.SessionState{
					Warm:       true,
					Mu:         []float64{1.5, -2.25, 1e-300},
					Alpha:      0.75,
					Omega:      []int{2},
					Q:          q,
					SigmaFrame: sigmaFrame,
					Sigma2:     0.125,
					ObsIdx:     []int{2, 0},
					ObsVal:     []float64{3.5, -0.5},
				},
			},
			{
				Name:   "ident",
				Digest: 7,
				State: &core.SessionState{
					Warm:       true,
					Mu:         []float64{0, 1, math.SmallestNonzeroFloat64},
					SigmaFrame: sigma,
					Sigma2:     2,
				},
			},
			{
				Name:   "power",
				Digest: 42,
				State: &core.SessionState{
					ObsIdx: []int{1},
					ObsVal: []float64{9.75},
				},
			},
			{Name: "empty", Digest: 0, State: nil},
		},
	}
}

func snapshotsEqual(t *testing.T, got, want *Snapshot) {
	t.Helper()
	if got.Seq != want.Seq || got.Rung != want.Rung {
		t.Fatalf("Seq/Rung %d/%d != %d/%d", got.Seq, got.Rung, want.Seq, want.Rung)
	}
	if (got.Controller == nil) != (want.Controller == nil) {
		t.Fatalf("controller state present=%v, want %v", got.Controller != nil, want.Controller != nil)
	}
	if g, w := got.Controller, want.Controller; g != nil {
		if !floatsEqual(g.Perf, w.Perf) || !floatsEqual(g.Power, w.Power) || !floatsEqual(g.ObsPerf, w.ObsPerf) {
			t.Fatal("controller estimate vectors differ")
		}
		if len(g.ObsIdx) != len(w.ObsIdx) {
			t.Fatalf("controller ObsIdx %v != %v", g.ObsIdx, w.ObsIdx)
		}
		for i := range w.ObsIdx {
			if g.ObsIdx[i] != w.ObsIdx[i] {
				t.Fatalf("controller ObsIdx %v != %v", g.ObsIdx, w.ObsIdx)
			}
		}
	}
	if len(got.Sessions) != len(want.Sessions) {
		t.Fatalf("%d sessions != %d", len(got.Sessions), len(want.Sessions))
	}
	for i := range want.Sessions {
		g, w := got.Sessions[i], want.Sessions[i]
		if g.Name != w.Name || g.Digest != w.Digest {
			t.Fatalf("session %d header: %q/%x != %q/%x", i, g.Name, g.Digest, w.Name, w.Digest)
		}
		if (g.State == nil) != (w.State == nil) {
			t.Fatalf("session %d state presence mismatch", i)
		}
		if w.State == nil {
			continue
		}
		if g.State.Warm != w.State.Warm || !floatsEqual([]float64{g.State.Sigma2, g.State.Alpha},
			[]float64{w.State.Sigma2, w.State.Alpha}) {
			t.Fatalf("session %d state scalars differ", i)
		}
		if !floatsEqual(g.State.Mu, w.State.Mu) || !floatsEqual(g.State.ObsVal, w.State.ObsVal) {
			t.Fatalf("session %d state vectors differ", i)
		}
		if len(g.State.ObsIdx) != len(w.State.ObsIdx) {
			t.Fatalf("session %d obs count differs", i)
		}
		for j := range w.State.ObsIdx {
			if g.State.ObsIdx[j] != w.State.ObsIdx[j] {
				t.Fatalf("session %d obs idx %d differs", i, j)
			}
		}
		if len(g.State.Omega) != len(w.State.Omega) {
			t.Fatalf("session %d frame size differs", i)
		}
		for j := range w.State.Omega {
			if g.State.Omega[j] != w.State.Omega[j] {
				t.Fatalf("session %d frame index %d differs", i, j)
			}
		}
		for name, m := range map[string][2]*matrix.Matrix{
			"Q": {g.State.Q, w.State.Q}, "Σ′": {g.State.SigmaFrame, w.State.SigmaFrame}} {
			if (m[0] == nil) != (m[1] == nil) {
				t.Fatalf("session %d %s presence mismatch", i, name)
			}
			if m[1] != nil && (m[0].Rows != m[1].Rows || m[0].Cols != m[1].Cols || !floatsEqual(m[0].Data, m[1].Data)) {
				t.Fatalf("session %d %s differs", i, name)
			}
		}
	}
}

func floatsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestSnapshotRoundTrip: encode → decode is the identity, including bit
// patterns of denormals and the nil-state entry.
func TestSnapshotRoundTrip(t *testing.T) {
	want := sampleSnapshot()
	got, err := DecodeSnapshot(EncodeSnapshot(want))
	if err != nil {
		t.Fatal(err)
	}
	snapshotsEqual(t, got, want)
}

// TestSnapshotDetectsDamage: every single-byte flip anywhere in the encoding
// must be rejected (magic, version, checksum, lengths, payload — all of it).
func TestSnapshotDetectsDamage(t *testing.T) {
	good := EncodeSnapshot(sampleSnapshot())
	if _, err := DecodeSnapshot(good); err != nil {
		t.Fatal(err)
	}
	for i := range good {
		bad := append([]byte(nil), good...)
		bad[i] ^= 0x40
		if _, err := DecodeSnapshot(bad); err == nil {
			t.Fatalf("flip at byte %d went undetected", i)
		}
	}
	// Truncations at every length must fail too, not panic.
	for i := 0; i < len(good); i++ {
		if _, err := DecodeSnapshot(good[:i]); err == nil {
			t.Fatalf("truncation to %d bytes went undetected", i)
		}
	}
	// Trailing garbage is damage as well.
	if _, err := DecodeSnapshot(append(append([]byte(nil), good...), 0)); err == nil {
		t.Fatal("trailing byte went undetected")
	}
}

// TestJournalRoundTrip: records survive append → scan in order.
func TestJournalRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := []*WindowRecord{
		{Seq: 1, Rung: 0, ObsIdx: []int{3, 1}, Perf: []float64{2.5, 4.5}, Power: []float64{10, 20}},
		{Seq: 2, Rung: 1, ObsIdx: []int{0}, Perf: []float64{1.25}, Power: []float64{5.5}},
		{Seq: 3, Rung: 0, ObsIdx: nil, Perf: nil, Power: nil},
	}
	for _, r := range want {
		if err := st.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if st.LastSeq() != 3 {
		t.Fatalf("LastSeq = %d, want 3", st.LastSeq())
	}
	got, err := st.Replay(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i, r := range got {
		w := want[i]
		if r.Seq != w.Seq || r.Rung != w.Rung || len(r.ObsIdx) != len(w.ObsIdx) {
			t.Fatalf("record %d: %+v != %+v", i, r, w)
		}
		if !floatsEqual(r.Perf, w.Perf) || !floatsEqual(r.Power, w.Power) {
			t.Fatalf("record %d readings differ", i)
		}
	}
	// Replay(afterSeq) skips folded-in records.
	tail, err := st.Replay(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(tail) != 1 || tail[0].Seq != 3 {
		t.Fatalf("Replay(2) = %d records (first seq %d), want just seq 3", len(tail), tail[0].Seq)
	}
	st.Close()

	// Reopen: LastSeq is recovered from the file.
	st2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if st2.LastSeq() != 3 {
		t.Fatalf("reopened LastSeq = %d, want 3", st2.LastSeq())
	}
}

// TestJournalTornTailRepair: a crash mid-append leaves a partial record;
// reopening truncates it and keeps every acknowledged record, and the next
// append lands cleanly after them.
func TestJournalTornTailRepair(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	r1 := &WindowRecord{Seq: 1, ObsIdx: []int{0}, Perf: []float64{1}, Power: []float64{2}}
	r2 := &WindowRecord{Seq: 2, ObsIdx: []int{1}, Perf: []float64{3}, Power: []float64{4}}
	if err := st.Append(r1); err != nil {
		t.Fatal(err)
	}
	st.Close()

	// Simulate the torn write: half of r2's frame lands.
	path := filepath.Join(dir, jrnlName)
	full := encodeRecord(r2)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(full[:len(full)/2]); err != nil {
		t.Fatal(err)
	}
	f.Close()

	st, err = Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if st.LastSeq() != 1 {
		t.Fatalf("LastSeq after repair = %d, want 1", st.LastSeq())
	}
	if err := st.Append(r2); err != nil {
		t.Fatal(err)
	}
	recs, err := st.Replay(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[0].Seq != 1 || recs[1].Seq != 2 {
		t.Fatalf("unexpected records after repair: %d", len(recs))
	}
}

// TestJournalBitFlipStopsScan: corruption strictly inside an acknowledged
// record stops replay at the last record before the damage — the WAL
// guarantee is a clean prefix, never garbage.
func TestJournalBitFlipStopsScan(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for seq := uint64(1); seq <= 3; seq++ {
		if err := st.Append(&WindowRecord{Seq: seq, ObsIdx: []int{0}, Perf: []float64{1}, Power: []float64{2}}); err != nil {
			t.Fatal(err)
		}
	}
	st.Close()

	path := filepath.Join(dir, jrnlName)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a bit inside the second record's payload.
	recLen := (len(b) - len(journalMagic)) / 3
	b[len(journalMagic)+recLen+recHeader+2] ^= 0x01
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}

	st, err = Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	recs, err := st.Replay(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Seq != 1 {
		t.Fatalf("scan past corruption: got %d records", len(recs))
	}
}

// TestSnapshotRotation: writing a second snapshot keeps the first as the
// previous generation; damaging the current falls back to it.
func TestSnapshotRotation(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	first := sampleSnapshot()
	first.Seq = 1
	if err := st.WriteSnapshot(first); err != nil {
		t.Fatal(err)
	}
	second := sampleSnapshot()
	second.Seq = 2
	if err := st.WriteSnapshot(second); err != nil {
		t.Fatal(err)
	}

	got, err := st.LoadSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if got.Seq != 2 {
		t.Fatalf("loaded Seq %d, want the current generation (2)", got.Seq)
	}

	// Bit-flip the current snapshot: recovery must fall back to Seq 1.
	cur := filepath.Join(dir, snapName)
	b, err := os.ReadFile(cur)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0x10
	if err := os.WriteFile(cur, b, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err = st.LoadSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if got.Seq != 1 {
		t.Fatalf("fallback loaded Seq %d, want previous generation (1)", got.Seq)
	}

	// Remove the current entirely (crash between the two renames): still the
	// previous generation.
	if err := os.Remove(cur); err != nil {
		t.Fatal(err)
	}
	got, err = st.LoadSnapshot()
	if err != nil || got.Seq != 1 {
		t.Fatalf("post-crash fallback: snap=%v err=%v", got, err)
	}
}

// TestSnapshotBothDamaged: when both generations are corrupt the error says
// so (and no snapshot is invented).
func TestSnapshotBothDamaged(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	snap := sampleSnapshot()
	if err := st.WriteSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	if err := st.WriteSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{snapName, prevName} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("junk"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := st.LoadSnapshot(); err == nil {
		t.Fatal("two damaged snapshots loaded successfully")
	}
}

// TestLoadSnapshotEmpty: an empty state dir is a cold start, not an error.
func TestLoadSnapshotEmpty(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	snap, err := st.LoadSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if snap != nil {
		t.Fatal("snapshot invented from an empty dir")
	}
}

// TestSessionStateThroughSnapshot is satellite coverage for the
// DropObservations / ForgetPosterior session surgery surviving the full
// encode → decode → Restore path.
func TestSessionStateThroughSnapshot(t *testing.T) {
	known := matrix.New(4, 6)
	vals := []float64{
		5, 6, 7, 8, 9, 10,
		5.5, 6.5, 7.5, 8.5, 9.5, 10.5,
		4.5, 5.5, 6.5, 7.5, 8.5, 9.5,
		5.2, 6.1, 7.3, 8.2, 9.1, 10.3,
	}
	copy(known.Data, vals)
	prior, err := core.NewPrior(known, core.Options{})
	if err != nil {
		t.Fatal(err)
	}

	fit := func(s *core.Session) *core.Result {
		t.Helper()
		res, err := s.Fit(nil)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	orig := prior.NewSession()
	for i, idx := range []int{0, 3, 5} {
		if err := orig.Add(idx, []float64{5.1, 8.3, 10.1}[i]); err != nil {
			t.Fatal(err)
		}
	}
	fit(orig)

	// Surgery 1: drop observations, keep the posterior.
	orig.ClearObservations()
	if err := orig.Add(2, 7.2); err != nil {
		t.Fatal(err)
	}
	roundTrip := func(s *core.Session) *core.Session {
		t.Helper()
		b := EncodeSnapshot(&Snapshot{Seq: 1, Sessions: []SessionEntry{
			{Name: "s", Digest: prior.Digest(), State: s.State()},
		}})
		snap, err := DecodeSnapshot(b)
		if err != nil {
			t.Fatal(err)
		}
		restored := prior.NewSession()
		if err := restored.Restore(snap.Sessions[0].State); err != nil {
			t.Fatal(err)
		}
		return restored
	}
	restored := roundTrip(orig)
	want, got := fit(orig), fit(restored)
	for i := range want.Estimate {
		if want.Estimate[i] != got.Estimate[i] {
			t.Fatalf("post-DropObservations estimate[%d]: %g != %g", i, got.Estimate[i], want.Estimate[i])
		}
	}

	// Surgery 2: forget the posterior, keep observations.
	orig.ForgetPosterior()
	restored = roundTrip(orig)
	want, got = fit(orig), fit(restored)
	for i := range want.Estimate {
		if want.Estimate[i] != got.Estimate[i] {
			t.Fatalf("post-ForgetPosterior estimate[%d]: %g != %g", i, got.Estimate[i], want.Estimate[i])
		}
	}
}

// TestDecoderLimits: decoded length fields larger than the remaining input
// must be rejected before allocation (a flipped length byte cannot demand
// gigabytes).
func TestDecoderLimits(t *testing.T) {
	var p enc
	p.u32(0xffffffff) // claimed slice length far beyond the payload
	d := &dec{buf: p.buf, what: "test"}
	if out := d.f64s(); out != nil || d.err == nil {
		t.Fatal("oversized float slice length accepted")
	}
	d = &dec{buf: p.buf, what: "test"}
	if out := d.ints(); out != nil || d.err == nil {
		t.Fatal("oversized int slice length accepted")
	}
	d = &dec{buf: p.buf, what: "test"}
	if s := d.str(16); s != "" || d.err == nil {
		t.Fatal("oversized string length accepted")
	}
}

func FuzzDecodeSnapshot(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte(snapMagic))
	f.Add(EncodeSnapshot(sampleSnapshot()))
	f.Add(EncodeSnapshot(&Snapshot{}))
	// A version-2 snapshot of a real warm session whose posterior is in a
	// subspace frame (the n = 32 power prior), and an older version's
	// header.
	prior, s := fittedState(f, platform.CoresOnly(), true)
	st := s.State()
	if st.Q == nil {
		f.Fatal("the n = 32 power posterior is not in a subspace frame")
	}
	f.Add(EncodeSnapshot(&Snapshot{Seq: 1, Sessions: []SessionEntry{{Name: "power", Digest: prior.Digest(), State: st}}}))
	v1 := EncodeSnapshot(&Snapshot{})
	v1[len(snapMagic)] = 1
	f.Add(v1)
	f.Fuzz(func(t *testing.T, b []byte) {
		// The only contract: never panic, never hang, and on success the
		// result re-encodes without panicking either.
		snap, err := DecodeSnapshot(b)
		if err == nil && snap != nil {
			EncodeSnapshot(snap)
		}
	})
}

func FuzzScanJournal(f *testing.F) {
	var stream bytes.Buffer
	stream.Write(encodeRecord(&WindowRecord{Seq: 1, ObsIdx: []int{0}, Perf: []float64{1}, Power: []float64{2}}))
	stream.Write(encodeRecord(&WindowRecord{Seq: 2}))
	f.Add([]byte{})
	f.Add(stream.Bytes())
	f.Fuzz(func(t *testing.T, b []byte) {
		recs, clean := scanJournal(b)
		if clean < 0 || clean > len(b) {
			t.Fatalf("clean prefix %d out of range", clean)
		}
		// Every returned record must re-encode cleanly.
		for _, r := range recs {
			encodeRecord(r)
		}
	})
}
