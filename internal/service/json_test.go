package service

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"leo/internal/pareto"
)

// encoderJSON renders v as json.Encoder does on the wire (HTML escaping on,
// trailing newline).
func encoderJSON(t *testing.T, v any) ([]byte, error) {
	t.Helper()
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(v)
	return buf.Bytes(), err
}

// checkFloat requires appendJSONFloat to render f as json.Marshal does, and
// to refuse exactly the values json.Marshal refuses.
func checkFloat(t *testing.T, f float64) {
	t.Helper()
	got, ok := appendJSONFloat(nil, f)
	want, err := json.Marshal(f)
	if ok != (err == nil) {
		t.Fatalf("float %v (%#016x): ok=%v but encoding/json err=%v", f, math.Float64bits(f), ok, err)
	}
	if ok && !bytes.Equal(got, want) {
		t.Fatalf("float %#016x: got %s, encoding/json %s", math.Float64bits(f), got, want)
	}
}

// checkString requires appendJSONString to render s as json.Marshal does.
func checkString(t *testing.T, s string) {
	t.Helper()
	got := appendJSONString(nil, s)
	want, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("string %q: got %s, encoding/json %s", s, got, want)
	}
}

// TestAppendJSONStringControlBytes: every ASCII byte, alone and inside text,
// escapes as encoding/json escapes it — \b and \f included, which
// encoding/json writes in short form since Go 1.22.
func TestAppendJSONStringControlBytes(t *testing.T) {
	for b := 0; b < 0x80; b++ {
		checkString(t, string(rune(b)))
		checkString(t, "a"+string(rune(b))+"z")
	}
	for _, s := range []string{"\u2028", "\u2029", "\xff", "<tenant>&", "é\x00", ""} {
		checkString(t, s)
	}
}

// FuzzAppendJSON holds the hand-rolled encoders to encoding/json: floats by
// bit pattern (NaN, ±Inf, subnormals, the 1e-6 and 1e21 format edges),
// arbitrary strings, and the plan and observe bodies built from them
// against json.Encoder's rendering of the equivalent values.
func FuzzAppendJSON(f *testing.F) {
	for _, v := range []float64{0, math.Copysign(0, -1), 1, -2.5, 1e-6, math.Nextafter(1e-6, 0),
		1e21, math.Nextafter(1e21, 0), 1e-7, 123456789e-300, math.SmallestNonzeroFloat64,
		math.MaxFloat64, math.Inf(1), math.Inf(-1), math.NaN()} {
		f.Add(math.Float64bits(v), "rung-0", uint64(7), 3, false)
	}
	f.Add(uint64(0x3ff0000000000001), "\b\f\n\r\t\x00\x1f\"\\<>&\u2028\u2029\xff", uint64(0), -1, true)
	f.Fuzz(func(t *testing.T, bits uint64, s string, gen uint64, n int, shed bool) {
		v := math.Float64frombits(bits)
		checkFloat(t, v)
		checkString(t, s)

		plan := &pareto.Plan{
			Allocations: []pareto.Allocation{{Index: n, Time: v}, {Index: 3, Time: 1 / (1 + math.Abs(v))}},
			IdleTime:    v / 3,
			Energy:      -v,
			Rate:        v * 1e15,
		}
		if n%2 == 0 {
			plan.Allocations = nil
		}
		got, ok := appendPlanJSON(nil, plan, s, gen)
		want, err := encoderJSON(t, planReply{Allocations: plan.Allocations, IdleTime: plan.IdleTime,
			Energy: plan.Energy, Rate: plan.Rate, Rung: s, Gen: gen})
		if ok != (err == nil) {
			t.Fatalf("plan: ok=%v but encoding/json err=%v", ok, err)
		}
		if ok && !bytes.Equal(got, want) {
			t.Fatalf("plan: got %s, encoding/json %s", got, want)
		}

		got = appendObserveJSON(nil, n, int(gen%1000), s, shed)
		want, err = encoderJSON(t, map[string]any{"windows": n, "dropped": int(gen % 1000), "rung": s, "shed": shed})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("observe: got %s, encoding/json %s", got, want)
		}
	})
}
