package matrix

import (
	"math/rand"
	"testing"
)

// refInverseInto is the pre-blocking reference implementation of the
// DPOTRI-style inverse: the scalar single-chain triangular inverse followed
// by the tail-dot product phase, exactly as InverseInto computed it before
// the TRTRI register blocking. The blocked kernel is required to reproduce
// it bit for bit — every element's reduction chain is a single accumulator
// over ascending t on both sides.
func refInverseInto(c *Cholesky, dst *Matrix) *Matrix {
	n, data := c.n, c.l.Data
	w := New(n, n)
	for j := 0; j < n; j++ {
		wrow := w.Data[j*n : (j+1)*n]
		wrow[j] = 1 / data[j*n+j]
		for i := j + 1; i < n; i++ {
			lrow := data[i*n+j : i*n+i]
			s := 0.0
			for t, v := range lrow {
				s -= v * wrow[j+t]
			}
			wrow[i] = s / data[i*n+i]
		}
	}
	for i := 0; i < n; i++ {
		wi := w.Data[i*n+i : (i+1)*n]
		for j := 0; j <= i; j++ {
			dst.Data[i*n+j] = dotUnchecked(wi, w.Data[j*n+i:(j+1)*n])
		}
	}
	mirrorLower(dst)
	return dst
}

// TestInverseIntoAllocs pins the steady-state allocation behavior: the L⁻¹
// scratch lives in the Cholesky workspace, so after the first call a loop
// invoking InverseInto every iteration allocates nothing.
func TestInverseIntoAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	a := randomSPD(rng, 96)
	ch, err := NewCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	dst := New(96, 96)
	ch.InverseInto(dst)
	allocs := testing.AllocsPerRun(5, func() {
		ch.InverseInto(dst)
	})
	if allocs != 0 {
		t.Fatalf("InverseInto allocated %v times in steady state, want 0", allocs)
	}
}

// TestInverseIntoBitIdentical pins the blocked TRTRI/LAUUM kernels to the
// scalar reference: not close, identical. This is what lets the blocked
// inverse land without regenerating any golden results — the E-step consumes
// the same bits it always did. Sizes straddle the 4-wide blocking (remainder
// columns, sub-block sizes) and the factorization's panel width.
func TestInverseIntoBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 17, 33, 64, 65, 129} {
		a := randomSPD(rng, n)
		ch, err := NewCholesky(a)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		got := ch.InverseInto(New(n, n))
		want := refInverseInto(ch, New(n, n))
		for i, v := range want.Data {
			if got.Data[i] != v {
				t.Fatalf("n=%d: element (%d,%d) = %v, reference %v — blocked inverse is not bit-identical",
					n, i/n, i%n, got.Data[i], v)
			}
		}
	}
}
