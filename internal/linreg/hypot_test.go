package linreg

import (
	"math"
	"testing"
)

// hypotSpecials are the arguments where hypot's scaling, ordering and
// special cases can part from math.Hypot's: signed zeros, subnormals, the
// extremes of the normal range, infinities, NaNs with and without a
// payload, equal magnitudes and ratios around 2^±27, where (q/p)² falls
// below half an ulp of 1.
var hypotSpecials = []float64{
	0, math.Copysign(0, -1),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	math.Float64frombits(0x000fffffffffffff), // largest subnormal
	2.2250738585072014e-308,                  // smallest normal
	math.MaxFloat64, -math.MaxFloat64,
	math.Inf(1), math.Inf(-1),
	math.NaN(), -math.NaN(), math.Float64frombits(0x7ff8000000000123),
	1, -1, 3, -3,
	math.Ldexp(1, -27), math.Nextafter(math.Ldexp(1, -27), 0), math.Nextafter(math.Ldexp(1, -27), 1),
	math.Ldexp(1, 27), math.Nextafter(math.Ldexp(1, 27), 0), math.Nextafter(math.Ldexp(1, 27), math.Inf(1)),
	1e-150, 1e150, -1e300, 1e-300,
}

func sameHypot(t *testing.T, p, q float64) {
	t.Helper()
	got, want := hypot(p, q), math.Hypot(p, q)
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("hypot(%v, %v) = %v (%#016x), math.Hypot = %v (%#016x)",
			p, q, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

// TestHypotSpecialValues pins hypot to math.Hypot, bit for bit, on every
// pair of special arguments.
func TestHypotSpecialValues(t *testing.T) {
	for _, p := range hypotSpecials {
		for _, q := range hypotSpecials {
			sameHypot(t, p, q)
		}
	}
}

// FuzzHypot checks hypot against math.Hypot, bit for bit, on arbitrary
// pairs.
func FuzzHypot(f *testing.F) {
	for _, p := range hypotSpecials {
		for _, q := range hypotSpecials {
			f.Add(p, q)
		}
	}
	f.Fuzz(func(t *testing.T, p, q float64) {
		sameHypot(t, p, q)
	})
}
