package matrix

import (
	"math/rand"
	"testing"
)

// refSyrk is the literal O(m²k) reference: α·a·aᵀ over the full square.
func refSyrk(alpha float64, a *Matrix) *Matrix {
	out := New(a.Rows, a.Rows)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < a.Rows; j++ {
			s := 0.0
			for t := 0; t < a.Cols; t++ {
				s += a.At(i, t) * a.At(j, t)
			}
			out.Set(i, j, alpha*s)
		}
	}
	return out
}

func TestSyrkIntoMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(201))
	for _, m := range blockedSizes {
		for _, k := range []int{0, 1, 3, 25} {
			a := randomMatrix(rng, m, k)
			got := SyrkInto(New(m, m), 1.5, a)
			want := refSyrk(1.5, a)
			if d := maxAbsDiff(got, want); d > kernelTol {
				t.Errorf("SyrkInto m=%d k=%d: max diff %g", m, k, d)
			}
			if !got.IsSymmetric(0) {
				t.Errorf("SyrkInto m=%d k=%d: not exactly symmetric", m, k)
			}
		}
	}
}

// TestSymmetricProductIntoMatchesGEMM: for a = P·G with G symmetric the
// product a·Pᵀ is symmetric, and the lower-triangle kernel must match the
// full GEMM to round-off while coming out exactly symmetric.
func TestSymmetricProductIntoMatchesGEMM(t *testing.T) {
	rng := rand.New(rand.NewSource(206))
	for _, m := range blockedSizes {
		for _, k := range []int{0, 1, 3, 25} {
			p := randomMatrix(rng, m, k)
			g := randomMatrix(rng, k, k)
			g = g.Add(g.Transpose())
			a := p.Mul(g)
			got := SymmetricProductInto(New(m, m), 0.5, a, p)
			want := MulTransBInto(New(m, m), a, p).Scale(0.5)
			if d := maxAbsDiff(got, want); d > kernelTol {
				t.Errorf("SymmetricProductInto m=%d k=%d: max diff %g", m, k, d)
			}
			if !got.IsSymmetric(0) {
				t.Errorf("SymmetricProductInto m=%d k=%d: not exactly symmetric", m, k)
			}
		}
	}
}

func TestSyrkAccumIntoMatchesRank1Loop(t *testing.T) {
	rng := rand.New(rand.NewSource(202))
	for _, m := range []int{1, 2, 5, 64, 97} {
		base := randomSPD(rng, m) // symmetric on entry, as the contract requires
		a := randomMatrix(rng, 7, m)
		got := base.Clone()
		SyrkAccumInto(got, 2.0, a.Transpose())
		want := base.Clone()
		for r := 0; r < a.Rows; r++ {
			want.AddScaledOuter(2.0, a.Row(r), a.Row(r))
		}
		if d := maxAbsDiff(got, want); d > kernelTol {
			t.Errorf("SyrkAccumInto m=%d: max diff %g", m, d)
		}
		if !got.IsSymmetric(0) {
			t.Errorf("SyrkAccumInto m=%d: not exactly symmetric", m)
		}
	}
}

func TestInverseIntoMatchesInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(203))
	for _, n := range blockedSizes {
		a := randomSPD(rng, n)
		ch, err := NewCholesky(a)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		got := ch.InverseInto(New(n, n))
		want := ch.Inverse()
		if d := maxAbsDiff(got, want); d > 1e-7 {
			t.Errorf("InverseInto n=%d: max diff vs Inverse %g", n, d)
		}
		if !got.IsSymmetric(0) {
			t.Errorf("InverseInto n=%d: not exactly symmetric", n)
		}
		// A·A⁻¹ must reproduce the identity.
		if d := maxAbsDiff(a.Mul(got), Identity(n)); d > 1e-7 {
			t.Errorf("InverseInto n=%d: A·A⁻¹ off identity by %g", n, d)
		}
	}
}

func TestForwardSolveTIntoIsForwardSubstitution(t *testing.T) {
	rng := rand.New(rand.NewSource(204))
	for _, n := range []int{1, 3, 33, 64, 65} {
		a := randomSPD(rng, n)
		ch, err := NewCholesky(a)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		b := randomMatrix(rng, 6, n)
		got := ch.ForwardSolveTInto(New(6, n), b)
		// Row i of got·Lᵀ is (L·xᵢ)ᵀ, which must reproduce bᵢ.
		l := ch.L()
		if d := maxAbsDiff(MulTransBInto(New(6, n), got, l), b); d > 1e-8 {
			t.Errorf("ForwardSolveTInto n=%d: L·x off b by %g", n, d)
		}
		// V = L⁻¹Bᵀ composed with the SYRK must equal B A⁻¹ Bᵀ.
		want := b.Mul(ch.Inverse()).Mul(b.Transpose())
		if d := maxAbsDiff(SyrkInto(New(6, 6), 1, got), want); d > 1e-7 {
			t.Errorf("ForwardSolveTInto n=%d: VᵀV off B A⁻¹ Bᵀ by %g", n, d)
		}
		// Aliased in-place half-solve must agree bit for bit.
		inPlace := b.Clone()
		ch.ForwardSolveTInto(inPlace, inPlace)
		if d := maxAbsDiff(inPlace, got); d != 0 {
			t.Errorf("ForwardSolveTInto n=%d: aliased solve differs by %g", n, d)
		}
	}
}

func TestReshapeGrowOnly(t *testing.T) {
	m := New(4, 6)
	backing := &m.Data[0]
	m.Reshape(2, 3)
	if m.Rows != 2 || m.Cols != 3 || len(m.Data) != 6 {
		t.Fatalf("Reshape(2,3) => %dx%d len %d", m.Rows, m.Cols, len(m.Data))
	}
	m.Reshape(4, 6)
	if &m.Data[0] != backing {
		t.Fatal("Reshape within capacity reallocated the backing array")
	}
	m.Reshape(5, 6)
	if len(m.Data) != 30 {
		t.Fatalf("Reshape(5,6) len %d", len(m.Data))
	}
}

func TestCholeskyResizeReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(206))
	ws := NewCholeskyWorkspace(20)
	for _, n := range []int{20, 8, 20, 8} {
		ws.Resize(n)
		a := randomSPD(rng, n)
		if err := ws.Factorize(a); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		fresh, err := NewCholesky(a)
		if err != nil {
			t.Fatal(err)
		}
		if d := maxAbsDiff(ws.L(), fresh.L()); d != 0 {
			t.Fatalf("n=%d: resized workspace factor differs by %g", n, d)
		}
		got := ws.InverseInto(New(n, n))
		if d := maxAbsDiff(a.Mul(got), Identity(n)); d > 1e-8 {
			t.Fatalf("n=%d: inverse through resized workspace off by %g", n, d)
		}
	}
}
