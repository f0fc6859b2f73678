package core

import (
	"math"
	"testing"

	"gps/internal/randx"
)

// ulpsApart returns the distance in ulps between two finite positive
// float64s (the ordered-bits trick: finite positives order like their bit
// patterns).
func ulpsApart(a, b float64) uint64 {
	ba, bb := math.Float64bits(a), math.Float64bits(b)
	if ba > bb {
		return ba - bb
	}
	return bb - ba
}

// checkFastExp asserts fastExp(x) is within maxULP ulps of math.Exp(x),
// reporting the worst offender through the returned pointer.
func checkFastExp(t *testing.T, x float64, maxULP uint64, worst *uint64, worstX *float64) {
	t.Helper()
	got, want := fastExp(x), math.Exp(x)
	d := ulpsApart(got, want)
	if d > *worst {
		*worst, *worstX = d, x
	}
	if d > maxULP {
		rel := math.Abs(got-want) / want
		t.Fatalf("fastExp(%v) = %v, math.Exp = %v: %d ulps apart (rel %.3e)", x, got, want, d, rel)
	}
}

// TestFastExpSweep pins the fast path's accuracy: ≤ 3 ulps from math.Exp
// (≈ 6.7e-16 relative; libm itself carries up to 1 ulp, so ≤ ~2 ulps of
// that budget is the fast path's own) across dense sweeps of the full
// fast-path domain, the near-zero region the decay factors live in, and
// the reduction boundaries k·ln2/256 where the polynomial argument peaks.
func TestFastExpSweep(t *testing.T) {
	const maxULP = 3
	var worst uint64
	var worstX float64

	// Full-domain uniform sweep, 4M points across [-700, 700].
	const n = 1 << 22
	for i := 0; i <= n; i++ {
		x := -700 + 1400*float64(i)/n
		checkFastExp(t, x, maxULP, &worst, &worstX)
	}
	// Dense near-zero sweep: λ(t-L) for in-window edges is O(1) or smaller.
	for i := -200000; i <= 200000; i++ {
		checkFastExp(t, float64(i)*1e-4, maxULP, &worst, &worstX)
	}
	// Reduction boundaries: arguments landing exactly between table nodes.
	for k := -129000; k <= 129000; k += 17 {
		x := (float64(k) + 0.5) * math.Ln2 / 128
		if x < -700 || x > 700 {
			continue
		}
		checkFastExp(t, x, maxULP, &worst, &worstX)
	}
	// Random log-uniform magnitudes, both signs.
	rng := randx.New(0xFA57E49)
	for i := 0; i < 1<<20; i++ {
		mag := math.Exp(rng.Uniform01()*13 - 6.5) // e^-6.5 .. e^6.5
		x := mag
		if rng.Uint64()&1 == 0 {
			x = -mag
		}
		checkFastExp(t, x, maxULP, &worst, &worstX)
	}
	t.Logf("worst case: %d ulps at x=%v", worst, worstX)
}

// TestFastExpExactValues pins the identities the sampler depends on:
// fastExp(0) must be exactly 1 (the undecayed-equivalence tests feed
// constant-time streams whose boost must be the multiplicative identity),
// and the fallback region must agree with math.Exp bit for bit, including
// overflow to +Inf (the DecayOverflowError trigger), underflow to 0, and
// NaN/Inf propagation.
func TestFastExpExactValues(t *testing.T) {
	if got := fastExp(0); got != 1 {
		t.Fatalf("fastExp(0) = %v, want exactly 1", got)
	}
	for _, x := range []float64{701, -701, 710, -746, 1000, -1000, 1e300, -1e300,
		math.Inf(1), math.Inf(-1), math.MaxFloat64} {
		got, want := fastExp(x), math.Exp(x)
		if got != want {
			t.Fatalf("fastExp(%v) = %v, want math.Exp's %v", x, got, want)
		}
	}
	if got := fastExp(math.NaN()); !math.IsNaN(got) {
		t.Fatalf("fastExp(NaN) = %v, want NaN", got)
	}
	// Domain boundary: both endpoints take the fast path and stay finite,
	// positive and normal.
	for _, x := range []float64{700, -700, 699.999999, -699.999999} {
		got := fastExp(x)
		if math.IsInf(got, 0) || got <= 0 || got < math.SmallestNonzeroFloat64*1e16 {
			t.Fatalf("fastExp(%v) = %v out of normal range", x, got)
		}
	}
}

func BenchmarkMathExp(b *testing.B) {
	x := -0.5
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += math.Exp(x)
		x = -sink / float64(b.N) // data-dependent, defeats hoisting
	}
	_ = sink
}

func BenchmarkFastExp(b *testing.B) {
	x := -0.5
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += fastExp(x)
		x = -sink / float64(b.N)
	}
	_ = sink
}
