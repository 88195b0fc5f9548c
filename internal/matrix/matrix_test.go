package matrix

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func randomMatrix(rng *rand.Rand, rows, cols int) *Matrix {
	m := New(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

// randomSPD returns a random symmetric positive-definite n×n matrix.
func randomSPD(rng *rand.Rand, n int) *Matrix {
	a := randomMatrix(rng, n, n)
	spd := a.Mul(a.Transpose())
	spd.AddDiagonal(float64(n)) // ensure well-conditioned
	return spd
}

func TestNewDimensions(t *testing.T) {
	m := New(3, 5)
	if m.Rows != 3 || m.Cols != 5 || len(m.Data) != 15 {
		t.Fatalf("New(3,5) = %dx%d len %d", m.Rows, m.Cols, len(m.Data))
	}
	for _, v := range m.Data {
		if v != 0 {
			t.Fatal("New must zero-initialize")
		}
	}
}

func TestNewNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for negative dimensions")
		}
	}()
	New(-1, 2)
}

func TestNewFromRows(t *testing.T) {
	m := NewFromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	if m.Rows != 3 || m.Cols != 2 {
		t.Fatalf("shape %dx%d", m.Rows, m.Cols)
	}
	if m.At(2, 1) != 6 || m.At(0, 0) != 1 {
		t.Fatalf("unexpected entries: %v", m.Data)
	}
}

func TestNewFromRowsEmpty(t *testing.T) {
	m := NewFromRows(nil)
	if m.Rows != 0 || m.Cols != 0 {
		t.Fatalf("empty input should give 0x0, got %dx%d", m.Rows, m.Cols)
	}
}

func TestNewFromRowsRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for ragged rows")
		}
	}()
	NewFromRows([][]float64{{1, 2}, {3}})
}

func TestIdentity(t *testing.T) {
	id := Identity(4)
	for r := 0; r < 4; r++ {
		for c := 0; c < 4; c++ {
			want := 0.0
			if r == c {
				want = 1
			}
			if id.At(r, c) != want {
				t.Fatalf("Identity(4)[%d][%d] = %g", r, c, id.At(r, c))
			}
		}
	}
}

func TestDiag(t *testing.T) {
	d := Diag([]float64{2, 3, 4})
	if d.At(0, 0) != 2 || d.At(1, 1) != 3 || d.At(2, 2) != 4 {
		t.Fatalf("Diag diagonal wrong: %v", d.Data)
	}
	if d.At(0, 1) != 0 || d.At(2, 0) != 0 {
		t.Fatal("Diag off-diagonal must be zero")
	}
}

func TestAtSetBounds(t *testing.T) {
	m := New(2, 2)
	m.Set(1, 1, 7)
	if m.At(1, 1) != 7 {
		t.Fatal("Set/At roundtrip failed")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range index")
		}
	}()
	m.At(2, 0)
}

func TestRowColViews(t *testing.T) {
	m := NewFromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	row := m.Row(1)
	row[0] = 99 // copy: must not alias
	if m.At(1, 0) != 4 {
		t.Fatal("Row must return a copy")
	}
	view := m.RowView(1)
	view[0] = 99 // view: must alias
	if m.At(1, 0) != 99 {
		t.Fatal("RowView must alias storage")
	}
	col := m.Col(2)
	if col[0] != 3 || col[1] != 6 {
		t.Fatalf("Col(2) = %v", col)
	}
}

func TestSetRow(t *testing.T) {
	m := New(2, 3)
	m.SetRow(1, []float64{7, 8, 9})
	if m.At(1, 2) != 9 {
		t.Fatal("SetRow failed")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for wrong-length SetRow")
		}
	}()
	m.SetRow(0, []float64{1})
}

func TestCloneIndependence(t *testing.T) {
	m := NewFromRows([][]float64{{1, 2}, {3, 4}})
	c := m.Clone()
	c.Set(0, 0, 42)
	if m.At(0, 0) != 1 {
		t.Fatal("Clone must deep-copy")
	}
}

func TestCopyFrom(t *testing.T) {
	m := New(2, 2)
	src := NewFromRows([][]float64{{1, 2}, {3, 4}})
	m.CopyFrom(src)
	if !m.Equal(src, 0) {
		t.Fatal("CopyFrom did not copy")
	}
}

func TestTranspose(t *testing.T) {
	m := NewFromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	tr := m.Transpose()
	if tr.Rows != 3 || tr.Cols != 2 {
		t.Fatalf("transpose shape %dx%d", tr.Rows, tr.Cols)
	}
	if tr.At(2, 1) != 6 || tr.At(0, 1) != 4 {
		t.Fatalf("transpose values wrong: %v", tr.Data)
	}
}

func TestTransposeInvolution(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := randomMatrix(rng, 7, 4)
	if !m.Transpose().Transpose().Equal(m, 0) {
		t.Fatal("(A')' != A")
	}
}

func TestAddSubScale(t *testing.T) {
	a := NewFromRows([][]float64{{1, 2}, {3, 4}})
	b := NewFromRows([][]float64{{10, 20}, {30, 40}})
	sum := a.Add(b)
	if sum.At(1, 1) != 44 {
		t.Fatalf("Add wrong: %v", sum.Data)
	}
	diff := b.Sub(a)
	if diff.At(0, 0) != 9 {
		t.Fatalf("Sub wrong: %v", diff.Data)
	}
	sc := a.Scale(2)
	if sc.At(1, 0) != 6 {
		t.Fatalf("Scale wrong: %v", sc.Data)
	}
	// Originals untouched.
	if a.At(0, 0) != 1 || b.At(0, 0) != 10 {
		t.Fatal("Add/Sub/Scale must not mutate operands")
	}
	a.AddInPlace(b)
	if a.At(0, 0) != 11 {
		t.Fatal("AddInPlace failed")
	}
	a.ScaleInPlace(0)
	if a.FrobeniusNorm() != 0 {
		t.Fatal("ScaleInPlace(0) must zero the matrix")
	}
}

func TestAddDiagonal(t *testing.T) {
	m := Identity(3)
	m.AddDiagonal(2)
	if m.At(0, 0) != 3 || m.At(1, 1) != 3 || m.At(0, 1) != 0 {
		t.Fatalf("AddDiagonal wrong: %v", m.Data)
	}
}

func TestAddScaledOuter(t *testing.T) {
	m := New(2, 3)
	m.AddScaledOuter(2, []float64{1, 2}, []float64{3, 4, 5})
	want := NewFromRows([][]float64{{6, 8, 10}, {12, 16, 20}})
	if !m.Equal(want, 1e-15) {
		t.Fatalf("AddScaledOuter = %v", m.Data)
	}
}

// TestAddScaledSymOuter: the symmetric rank-1 update keeps a symmetric
// matrix exactly symmetric at scales that are not powers of two (where
// AddScaledOuter rounds the mirrored products apart), agrees with
// AddScaledOuter to round-off, and adds the same bits at s = 1.
func TestAddScaledSymOuter(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const n = 24
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	base := Identity(n)
	base.AddScaledOuter(1, x, x)
	for _, s := range []float64{0.3, 3.7, 1} {
		sym := base.Clone().AddScaledSymOuter(s, x)
		ref := base.Clone().AddScaledOuter(s, x, x)
		if !sym.IsSymmetric(0) {
			t.Errorf("s=%g: result not exactly symmetric", s)
		}
		if !sym.Equal(ref, 1e-14) {
			t.Errorf("s=%g: differs from AddScaledOuter by %g", s, sym.MaxAbsDiff(ref))
		}
		if s == 1 && sym.MaxAbsDiff(ref) != 0 {
			t.Error("s=1: bits differ from AddScaledOuter")
		}
	}
}

func TestSymmetrize(t *testing.T) {
	m := NewFromRows([][]float64{{1, 2}, {4, 3}})
	m.Symmetrize()
	if m.At(0, 1) != 3 || m.At(1, 0) != 3 {
		t.Fatalf("Symmetrize wrong: %v", m.Data)
	}
	if !m.IsSymmetric(0) {
		t.Fatal("Symmetrize result not symmetric")
	}
}

func TestTraceAndNorm(t *testing.T) {
	m := NewFromRows([][]float64{{3, 0}, {0, 4}})
	if m.Trace() != 7 {
		t.Fatalf("Trace = %g", m.Trace())
	}
	if math.Abs(m.FrobeniusNorm()-5) > 1e-12 {
		t.Fatalf("FrobeniusNorm = %g, want 5", m.FrobeniusNorm())
	}
}

func TestMulVec(t *testing.T) {
	m := NewFromRows([][]float64{{1, 2}, {3, 4}})
	y := m.MulVec([]float64{1, 1})
	if y[0] != 3 || y[1] != 7 {
		t.Fatalf("MulVec = %v", y)
	}
}

// TestMulVecIntoBitIdentical pins MulVecInto's four-rows-per-pass loop to
// the per-row dot product: every remainder of the row count and several
// widths must land on dotUnchecked's bits exactly.
func TestMulVecIntoBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for rows := 0; rows <= 9; rows++ {
		for _, cols := range []int{0, 1, 3, 4, 17, 64, 129} {
			m := randomMatrix(rng, rows, cols)
			x := make([]float64, cols)
			for i := range x {
				x[i] = rng.NormFloat64() * 1e3
			}
			got := MulVecInto(make([]float64, rows), m, x)
			for r := 0; r < rows; r++ {
				want := dotUnchecked(m.RowView(r), x)
				if math.Float64bits(got[r]) != math.Float64bits(want) {
					t.Fatalf("%dx%d row %d: MulVecInto %v, dot %v", rows, cols, r, got[r], want)
				}
			}
		}
	}
}

func TestMulSmall(t *testing.T) {
	a := NewFromRows([][]float64{{1, 2}, {3, 4}})
	b := NewFromRows([][]float64{{5, 6}, {7, 8}})
	got := a.Mul(b)
	want := NewFromRows([][]float64{{19, 22}, {43, 50}})
	if !got.Equal(want, 1e-12) {
		t.Fatalf("Mul = %v", got.Data)
	}
}

func TestMulIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := randomMatrix(rng, 6, 6)
	if !m.Mul(Identity(6)).Equal(m, 1e-12) {
		t.Fatal("A*I != A")
	}
	if !Identity(6).Mul(m).Equal(m, 1e-12) {
		t.Fatal("I*A != A")
	}
}

// TestMulPastColumnTileMatchesReference compares a product wider than one
// GEMM column tile with a reference triple loop.
func TestMulPastColumnTileMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 160 // more than gemmColTile output columns
	a := randomMatrix(rng, n, n)
	b := randomMatrix(rng, n, n)
	got := a.Mul(b)
	want := New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			s := 0.0
			for k := 0; k < n; k++ {
				s += a.Data[i*n+k] * b.Data[k*n+j]
			}
			want.Data[i*n+j] = s
		}
	}
	if !got.Equal(want, 1e-9) {
		t.Fatal("Mul disagrees with reference")
	}
}

func TestMulShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for shape mismatch")
		}
	}()
	New(2, 3).Mul(New(2, 3))
}

func TestMulAssociativityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randomMatrix(r, 5, 4)
		b := randomMatrix(r, 4, 6)
		c := randomMatrix(r, 6, 3)
		left := a.Mul(b).Mul(c)
		right := a.Mul(b.Mul(c))
		return left.Equal(right, 1e-9)
	}
	cfg := &quick.Config{MaxCount: 25, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestTransposeOfProductProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randomMatrix(r, 5, 7)
		b := randomMatrix(r, 7, 4)
		return a.Mul(b).Transpose().Equal(b.Transpose().Mul(a.Transpose()), 1e-10)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestEqualShapes(t *testing.T) {
	if New(2, 3).Equal(New(3, 2), 1) {
		t.Fatal("different shapes must not be Equal")
	}
}

func TestIsSymmetric(t *testing.T) {
	if !Identity(3).IsSymmetric(0) {
		t.Fatal("identity must be symmetric")
	}
	m := NewFromRows([][]float64{{1, 2}, {2.5, 1}})
	if m.IsSymmetric(0.1) {
		t.Fatal("should not be symmetric within 0.1")
	}
	if !m.IsSymmetric(1) {
		t.Fatal("should be symmetric within 1")
	}
	if New(2, 3).IsSymmetric(1) {
		t.Fatal("non-square is never symmetric")
	}
}

func TestMaxAbsDiff(t *testing.T) {
	a := NewFromRows([][]float64{{1, 2}, {3, 4}})
	b := NewFromRows([][]float64{{1, 2.5}, {3, 4}})
	if d := a.MaxAbsDiff(b); math.Abs(d-0.5) > 1e-15 {
		t.Fatalf("MaxAbsDiff = %g", d)
	}
}

func TestStringElision(t *testing.T) {
	small := Identity(2)
	if s := small.String(); !strings.HasPrefix(s, "2x2[") {
		t.Fatalf("String = %q", s)
	}
	big := New(20, 20)
	if s := big.String(); !strings.Contains(s, "…") {
		t.Fatalf("large String should elide, got %q", s)
	}
}
