package core

import "math"

// fastExp is the decay hot path's e^x: a range-reduced table-plus-polynomial
// evaluation in the style of the ARM optimized-routines / musl exp, tuned
// for the two shapes forward decay actually evaluates — the admission boost
// exp(λ(t-L)) (one call per arrival) and the estimation-side decay factors
// exp(-λ(T-t)) (one call per sampled edge or motif). It avoids math.Exp's
// special-case ladder and its larger table, and inlines to straight-line
// float arithmetic: in the ingest benchmark it takes decayed uniform ingest
// from ~3.2× the undecayed cost down to ~1.2×.
//
// # Algorithm
//
// Write x = k·(ln2/128) + r with k = round(x·128/ln2) and |r| ≤ ln2/256.
// Then
//
//	e^x = 2^(k/128) · e^r = 2^e · T[j] · e^r,   e = k>>7, j = k&127,
//
// with T[j] = 2^(j/128) a 128-entry table. k is extracted with the classic
// shifter trick (adding 1.5·2^52 forces round-to-nearest-even at integer
// granularity), r with a two-term Cody–Waite reduction (ln2/128 split into
// a 36-bit head, exact when multiplied by |k| < 2^17, plus a tail), e^r
// with a degree-5 Taylor polynomial whose truncation error at |r| ≤ 0.00271
// is below 6e-19 — leaving the table lookup and the final multiply as the
// only rounding steps, ~0.5 ulp each. The sweep test pins the composed
// error at ≤ 3 ulps against math.Exp (≈ 6.7e-16 relative, worst observed 3;
// libm itself carries up to 1 ulp of that) over the full ±700 range plus
// dense near-zero and reduction-boundary sweeps.
//
// # Domain
//
// The fast path covers |x| ≤ 700, where 2^e·y stays comfortably inside
// normal float64 range and the exponent-add scaling below cannot wrap;
// anything else (NaN, ±Inf, overflow range, the subnormal tail below
// e^-700 ≈ 1e-304) falls back to math.Exp. The sampler's own overflow
// policy is unchanged: boosts beyond ~1000 half-lives still reach +Inf
// (via the fallback) and still trip DecayOverflowError.
func fastExp(x float64) float64 {
	if !(x >= -700 && x <= 700) {
		return math.Exp(x) // NaN, ±Inf, overflow and subnormal tails
	}
	z := x*invLn2N + expShifter
	kd := z - expShifter // round(x·128/ln2), exactly
	k := int64(kd)
	r := x - kd*ln2NHi - kd*ln2NLo // |r| ≤ ln2/256, head product exact
	// e^r - 1 ≈ r + r²/2 + r³/6 + r⁴/24 + r⁵/120 (Horner, truncation < 6e-19)
	r2 := r * r
	p := r + r2*(0.5+r*(1.0/6+r*(1.0/24+r*(1.0/120))))
	y := expTable[k&127]
	y += y * p // 2^(j/128)·e^r, still within (0.99, 2)
	// Scale by 2^(k>>7) by adding the exponent directly into the bit
	// pattern; |x| ≤ 700 keeps the biased exponent strictly inside (0,2047),
	// so this is an exact multiply by a power of two.
	return math.Float64frombits(math.Float64bits(y) + uint64(k>>7)<<52)
}

const (
	invLn2N    = 0x1.71547652b82fep+7  // 128/ln2
	ln2NHi     = 0x1.62e42fefa0000p-8  // head of ln2/128: 36 bits, k·head exact
	ln2NLo     = 0x1.cf79abc9e3b3ap-47 // ln2/128 - ln2NHi
	expShifter = 0x1.8p52              // 1.5·2^52: add+subtract rounds to integer
)

// expTable[j] = 2^(j/128), correctly rounded. Built once at init from
// math.Exp2 rather than pasted as literals; the accuracy suite bounds the
// composed result against math.Exp directly, so the table cannot drift
// unnoticed.
var expTable = func() (t [128]float64) {
	for j := range t {
		t[j] = math.Exp2(float64(j) / 128)
	}
	return
}()
