// Package matrix provides dense float64 linear algebra for the LEO
// estimator: matrix/vector arithmetic, Cholesky factorization of symmetric
// positive-definite systems, and Householder QR least squares.
//
// The package is self-contained (stdlib only) and tuned for the moderate
// sizes LEO needs (configuration spaces up to a few thousand dimensions).
// Matrices are stored row-major; the hot kernels — blocked Cholesky, the
// tiled GEMM, and the multi-RHS solves — fan out across goroutines for large
// operands while keeping each output element's reduction order fixed, so
// results are bit-identical at every worker count (see DESIGN.md §7). The
// *Into variants (MulInto, SubInto, CloneInto, OuterAccumInto, MulVecInto,
// SolveTInto) write into caller-owned buffers so steady-state loops allocate
// nothing.
package matrix

import (
	"fmt"
	"math"
	"strings"
)

// Matrix is a dense, row-major matrix of float64 values.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols, Data[r*Cols+c] is element (r,c)
}

// New returns a zero-valued rows×cols matrix.
func New(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("matrix: negative dimensions %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// NewFromRows builds a matrix from row slices. All rows must share a length.
func NewFromRows(rows [][]float64) *Matrix {
	if len(rows) == 0 {
		return New(0, 0)
	}
	cols := len(rows[0])
	m := New(len(rows), cols)
	for r, row := range rows {
		if len(row) != cols {
			panic(fmt.Sprintf("matrix: ragged rows: row 0 has %d cols, row %d has %d", cols, r, len(row)))
		}
		copy(m.Data[r*cols:(r+1)*cols], row)
	}
	return m
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Matrix {
	m := New(n, n)
	for i := 0; i < n; i++ {
		m.Data[i*n+i] = 1
	}
	return m
}

// Diag returns a square matrix with d on the diagonal and zeros elsewhere.
func Diag(d []float64) *Matrix {
	n := len(d)
	m := New(n, n)
	for i, v := range d {
		m.Data[i*n+i] = v
	}
	return m
}

// At returns element (r, c).
func (m *Matrix) At(r, c int) float64 {
	m.checkIndex(r, c)
	return m.Data[r*m.Cols+c]
}

// Set assigns element (r, c).
func (m *Matrix) Set(r, c int, v float64) {
	m.checkIndex(r, c)
	m.Data[r*m.Cols+c] = v
}

func (m *Matrix) checkIndex(r, c int) {
	if r < 0 || r >= m.Rows || c < 0 || c >= m.Cols {
		panic(fmt.Sprintf("matrix: index (%d,%d) out of range for %dx%d", r, c, m.Rows, m.Cols))
	}
}

// Row returns a copy of row r.
func (m *Matrix) Row(r int) []float64 {
	out := make([]float64, m.Cols)
	copy(out, m.Data[r*m.Cols:(r+1)*m.Cols])
	return out
}

// RowView returns row r as a slice aliasing the matrix storage.
func (m *Matrix) RowView(r int) []float64 {
	return m.Data[r*m.Cols : (r+1)*m.Cols]
}

// Col returns a copy of column c.
func (m *Matrix) Col(c int) []float64 {
	out := make([]float64, m.Rows)
	for r := 0; r < m.Rows; r++ {
		out[r] = m.Data[r*m.Cols+c]
	}
	return out
}

// SetRow copies v into row r.
func (m *Matrix) SetRow(r int, v []float64) {
	if len(v) != m.Cols {
		panic(fmt.Sprintf("matrix: SetRow length %d != cols %d", len(v), m.Cols))
	}
	copy(m.Data[r*m.Cols:(r+1)*m.Cols], v)
}

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	out := New(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// CopyFrom overwrites m with src. Dimensions must match.
func (m *Matrix) CopyFrom(src *Matrix) {
	if m.Rows != src.Rows || m.Cols != src.Cols {
		panic(fmt.Sprintf("matrix: CopyFrom shape mismatch %dx%d vs %dx%d", m.Rows, m.Cols, src.Rows, src.Cols))
	}
	copy(m.Data, src.Data)
}

// Reshape re-sizes m to rows×cols in place, reusing the backing array when
// it has capacity (grow-only storage: only growth past the high-water mark
// allocates). The element contents after Reshape are unspecified — callers
// are expected to overwrite them fully. Returns m.
func (m *Matrix) Reshape(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("matrix: negative dimensions %dx%d", rows, cols))
	}
	if need := rows * cols; cap(m.Data) < need {
		m.Data = make([]float64, need)
	} else {
		m.Data = m.Data[:need]
	}
	m.Rows, m.Cols = rows, cols
	return m
}

// Transpose returns a new matrix that is the transpose of m.
func (m *Matrix) Transpose() *Matrix {
	out := New(m.Cols, m.Rows)
	for r := 0; r < m.Rows; r++ {
		row := m.Data[r*m.Cols : (r+1)*m.Cols]
		for c, v := range row {
			out.Data[c*out.Cols+r] = v
		}
	}
	return out
}

// Add returns m + other.
func (m *Matrix) Add(other *Matrix) *Matrix {
	m.checkSameShape(other, "Add")
	out := m.Clone()
	for i, v := range other.Data {
		out.Data[i] += v
	}
	return out
}

// AddInPlace sets m = m + other and returns m.
func (m *Matrix) AddInPlace(other *Matrix) *Matrix {
	m.checkSameShape(other, "AddInPlace")
	for i, v := range other.Data {
		m.Data[i] += v
	}
	return m
}

// Sub returns m - other.
func (m *Matrix) Sub(other *Matrix) *Matrix {
	m.checkSameShape(other, "Sub")
	out := m.Clone()
	for i, v := range other.Data {
		out.Data[i] -= v
	}
	return out
}

// Scale returns s * m.
func (m *Matrix) Scale(s float64) *Matrix {
	out := m.Clone()
	for i := range out.Data {
		out.Data[i] *= s
	}
	return out
}

// ScaleInPlace sets m = s*m and returns m.
func (m *Matrix) ScaleInPlace(s float64) *Matrix {
	for i := range m.Data {
		m.Data[i] *= s
	}
	return m
}

// AddDiagonal adds v to every diagonal element of a square matrix, in place.
func (m *Matrix) AddDiagonal(v float64) *Matrix {
	m.checkSquare("AddDiagonal")
	for i := 0; i < m.Rows; i++ {
		m.Data[i*m.Cols+i] += v
	}
	return m
}

// AddScaledOuter adds s * x*y' to m in place. len(x) must equal Rows and
// len(y) must equal Cols.
func (m *Matrix) AddScaledOuter(s float64, x, y []float64) *Matrix {
	if len(x) != m.Rows || len(y) != m.Cols {
		panic(fmt.Sprintf("matrix: AddScaledOuter got %d,%d for %dx%d", len(x), len(y), m.Rows, m.Cols))
	}
	for r, xv := range x {
		if xv == 0 {
			continue
		}
		row := m.Data[r*m.Cols : (r+1)*m.Cols]
		f := s * xv
		for c, yv := range y {
			row[c] += f * yv
		}
	}
	return m
}

// AddScaledSymOuter adds s * x*x' to the square matrix m in place. Each
// product (s·x_i)·x_j is computed once, for i ≥ j, and added to both m[i,j]
// and m[j,i], so an exactly symmetric m stays exactly symmetric for any s.
// AddScaledOuter rounds the two mirrored products separately when s is not
// a power of two. At s = 1 both forms add the same bits.
func (m *Matrix) AddScaledSymOuter(s float64, x []float64) *Matrix {
	m.checkSquare("AddScaledSymOuter")
	n := m.Rows
	if len(x) != n {
		panic(fmt.Sprintf("matrix: AddScaledSymOuter got %d for %dx%d", len(x), n, n))
	}
	for i, xv := range x {
		f := s * xv
		row := m.Data[i*n : i*n+i+1]
		for j, yv := range x[:i] {
			t := f * yv
			row[j] += t
			m.Data[j*n+i] += t
		}
		row[i] += f * xv
	}
	return m
}

// Symmetrize sets m = (m + m')/2 in place (square matrices only).
func (m *Matrix) Symmetrize() *Matrix {
	m.checkSquare("Symmetrize")
	n := m.Rows
	for r := 0; r < n; r++ {
		for c := r + 1; c < n; c++ {
			v := 0.5 * (m.Data[r*n+c] + m.Data[c*n+r])
			m.Data[r*n+c] = v
			m.Data[c*n+r] = v
		}
	}
	return m
}

// Trace returns the sum of diagonal elements of a square matrix.
func (m *Matrix) Trace() float64 {
	m.checkSquare("Trace")
	t := 0.0
	for i := 0; i < m.Rows; i++ {
		t += m.Data[i*m.Cols+i]
	}
	return t
}

// FrobeniusNorm returns sqrt(sum of squared entries).
func (m *Matrix) FrobeniusNorm() float64 {
	s := 0.0
	for _, v := range m.Data {
		s += v * v
	}
	return math.Sqrt(s)
}

// MaxAbsDiff returns the max absolute elementwise difference between m and
// other, useful for convergence checks.
func (m *Matrix) MaxAbsDiff(other *Matrix) float64 {
	m.checkSameShape(other, "MaxAbsDiff")
	max := 0.0
	for i, v := range m.Data {
		d := math.Abs(v - other.Data[i])
		if d > max {
			max = d
		}
	}
	return max
}

// MulVec returns m * x for a vector x of length Cols.
func (m *Matrix) MulVec(x []float64) []float64 {
	if len(x) != m.Cols {
		panic(fmt.Sprintf("matrix: MulVec length %d != cols %d", len(x), m.Cols))
	}
	return MulVecInto(make([]float64, m.Rows), m, x)
}

// SubInto computes dst = a - b elementwise and returns dst. All three must
// share a shape; dst may alias a or b.
func SubInto(dst, a, b *Matrix) *Matrix {
	a.checkSameShape(b, "SubInto")
	a.checkSameShape(dst, "SubInto")
	for i, v := range a.Data {
		dst.Data[i] = v - b.Data[i]
	}
	return dst
}

// CloneInto copies src into dst (shapes must match) and returns dst. It is
// the buffer-reusing counterpart of Clone.
func CloneInto(dst, src *Matrix) *Matrix {
	dst.CopyFrom(src)
	return dst
}

// OuterAccumInto accumulates dst += s * x*yᵀ and returns dst — the
// buffer-reusing spelling of AddScaledOuter for call sites that pair it with
// the other *Into kernels.
func OuterAccumInto(dst *Matrix, s float64, x, y []float64) *Matrix {
	return dst.AddScaledOuter(s, x, y)
}

// MulVecInto computes dst = m * x and returns dst. dst must have length
// m.Rows and must not alias x.
func MulVecInto(dst []float64, m *Matrix, x []float64) []float64 {
	if len(x) != m.Cols {
		panic(fmt.Sprintf("matrix: MulVecInto length %d != cols %d", len(x), m.Cols))
	}
	if len(dst) != m.Rows {
		panic(fmt.Sprintf("matrix: MulVecInto dst length %d != rows %d", len(dst), m.Rows))
	}
	// Four rows per pass. Each row keeps its own single accumulator walking
	// the columns ascending — dotUnchecked's order — so every output keeps
	// its bits. A one-row loop is one serial add chain whose speed moved
	// with where the linker placed it; four independent chains do not.
	k := m.Cols
	r := 0
	for ; r+4 <= m.Rows; r += 4 {
		a0 := m.Data[r*k : (r+1)*k][:len(x)]
		a1 := m.Data[(r+1)*k : (r+2)*k][:len(x)]
		a2 := m.Data[(r+2)*k : (r+3)*k][:len(x)]
		a3 := m.Data[(r+3)*k : (r+4)*k][:len(x)]
		var s0, s1, s2, s3 float64
		for t, v := range x {
			s0 += a0[t] * v
			s1 += a1[t] * v
			s2 += a2[t] * v
			s3 += a3[t] * v
		}
		dst[r], dst[r+1], dst[r+2], dst[r+3] = s0, s1, s2, s3
	}
	for ; r < m.Rows; r++ {
		dst[r] = dotUnchecked(m.Data[r*k:(r+1)*k], x)
	}
	return dst
}

// Equal reports whether m and other have the same shape and all entries
// within tol of each other.
func (m *Matrix) Equal(other *Matrix, tol float64) bool {
	if m.Rows != other.Rows || m.Cols != other.Cols {
		return false
	}
	for i, v := range m.Data {
		if math.Abs(v-other.Data[i]) > tol {
			return false
		}
	}
	return true
}

// IsSymmetric reports whether the matrix is square and symmetric within tol.
func (m *Matrix) IsSymmetric(tol float64) bool {
	if m.Rows != m.Cols {
		return false
	}
	n := m.Rows
	for r := 0; r < n; r++ {
		for c := r + 1; c < n; c++ {
			if math.Abs(m.Data[r*n+c]-m.Data[c*n+r]) > tol {
				return false
			}
		}
	}
	return true
}

// String renders the matrix for debugging; large matrices are elided.
func (m *Matrix) String() string {
	const maxShow = 8
	var b strings.Builder
	fmt.Fprintf(&b, "%dx%d[", m.Rows, m.Cols)
	rows := m.Rows
	if rows > maxShow {
		rows = maxShow
	}
	for r := 0; r < rows; r++ {
		if r > 0 {
			b.WriteString("; ")
		}
		cols := m.Cols
		if cols > maxShow {
			cols = maxShow
		}
		for c := 0; c < cols; c++ {
			if c > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%.4g", m.Data[r*m.Cols+c])
		}
		if cols < m.Cols {
			b.WriteString(" …")
		}
	}
	if rows < m.Rows {
		b.WriteString("; …")
	}
	b.WriteByte(']')
	return b.String()
}

func (m *Matrix) checkSameShape(other *Matrix, op string) {
	if m.Rows != other.Rows || m.Cols != other.Cols {
		panic(fmt.Sprintf("matrix: %s shape mismatch %dx%d vs %dx%d", op, m.Rows, m.Cols, other.Rows, other.Cols))
	}
}

func (m *Matrix) checkSquare(op string) {
	if m.Rows != m.Cols {
		panic(fmt.Sprintf("matrix: %s requires square matrix, got %dx%d", op, m.Rows, m.Cols))
	}
}
