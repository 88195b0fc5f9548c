package matrix

import (
	"math/rand"
	"testing"
)

func benchSPD(n int) *Matrix {
	rng := rand.New(rand.NewSource(1))
	return randomSPD(rng, n)
}

func BenchmarkMul128(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	x := randomMatrix(rng, 128, 128)
	y := randomMatrix(rng, 128, 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.Mul(y)
	}
}

func BenchmarkMul512(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	x := randomMatrix(rng, 512, 512)
	y := randomMatrix(rng, 512, 512)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.Mul(y)
	}
}

func BenchmarkCholesky128(b *testing.B) {
	a := benchSPD(128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewCholesky(a); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCholesky512(b *testing.B) {
	a := benchSPD(512)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewCholesky(a); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCholesky1024 factors at the paper's full configuration-space
// size through a reused workspace — the exact steady-state shape of one
// full-size EM iteration's dominant factorization.
func BenchmarkCholesky1024(b *testing.B) {
	if testing.Short() {
		b.Skip("full-size factorization skipped in -short mode")
	}
	a := benchSPD(1024)
	ws := NewCholeskyWorkspace(1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ws.Factorize(a); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCholeskySolveMatrix128(b *testing.B) {
	a := benchSPD(128)
	ch, err := NewCholesky(a)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	rhs := randomMatrix(rng, 128, 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ch.Solve(rhs)
	}
}

func BenchmarkCholeskyInverse128(b *testing.B) {
	a := benchSPD(128)
	ch, err := NewCholesky(a)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ch.Inverse()
	}
}

// BenchmarkCholeskyInverseInto1024 times the DPOTRI-style symmetric inverse
// at the paper's full configuration-space size — the kernel that replaces the
// n-RHS triangular solve in the symmetry-aware E-step, at roughly a third of
// its flops.
func BenchmarkCholeskyInverseInto1024(b *testing.B) {
	if testing.Short() {
		b.Skip("full-size inverse skipped in -short mode")
	}
	a := benchSPD(1024)
	ch, err := NewCholesky(a)
	if err != nil {
		b.Fatal(err)
	}
	dst := New(1024, 1024)
	ch.InverseInto(dst) // allocate the L⁻¹ scratch before timing
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ch.InverseInto(dst)
	}
}

// BenchmarkSyrkWoodbury1024x25 times the SYRK shape the Woodbury correction
// hits every E-step: V is k×n with k observed configurations (25 here, the
// sampling budget scale), and S K⁻¹ Sᵀ = VᵀV lands as one n×n rank-k SYRK.
func BenchmarkSyrkWoodbury1024x25(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	a := randomMatrix(rng, 1024, 25)
	dst := New(1024, 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SyrkInto(dst, 1, a)
	}
}

func BenchmarkQRLeastSquares(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	a := randomMatrix(rng, 200, 15)
	y := make([]float64, 200)
	for i := range y {
		y[i] = rng.NormFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := LeastSquares(a, y); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMulVec1024(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	a := randomMatrix(rng, 1024, 1024)
	x := make([]float64, 1024)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.MulVec(x)
	}
}
