package main

import (
	mrand "math/rand"
	"time"

	"zkvc/internal/ff"
	"zkvc/internal/poly"
)

// The primitive timings run outside any session: a tight loop over one
// exported operation, the median of microReps repetitions.
const microReps = 7

// sink keeps the compiler from dropping the measured loops.
var sink ff.Fr
var sinkFp ff.Fp

func medianPerOp(ops int, f func()) float64 {
	ds := make([]time.Duration, microReps)
	for i := range ds {
		start := time.Now()
		f()
		ds[i] = time.Since(start)
	}
	return medianDur(ds) / float64(ops)
}

// microFF times Fr and Fp multiplication and Fr inversion, in ns per op.
func microFF(l map[string]float64) {
	rng := mrand.New(mrand.NewSource(7))
	var x, y ff.Fr
	x.SetPseudoRandom(rng)
	y.SetPseudoRandom(rng)
	var xp, yp ff.Fp
	xp.SetPseudoRandom(rng)
	yp.SetPseudoRandom(rng)
	const muls, invs = 1 << 17, 1 << 10
	l["ff.fr_mul_ns"] = 1e9 * medianPerOp(muls, func() {
		for i := 0; i < muls; i++ {
			x.Mul(&x, &y)
		}
	})
	l["ff.fp_mul_ns"] = 1e9 * medianPerOp(muls, func() {
		for i := 0; i < muls; i++ {
			xp.Mul(&xp, &yp)
		}
	})
	l["ff.fr_inverse_ns"] = 1e9 * medianPerOp(invs, func() {
		for i := 0; i < invs; i++ {
			x.Inverse(&x)
			x.Add(&x, &y)
		}
	})
	sink, sinkFp = x, xp
}

// nttSeconds times one forward NTT of size n (0 when n is 0).
func nttSeconds(n int) float64 {
	if n == 0 {
		return 0
	}
	d, err := poly.Shared(n)
	if err != nil {
		return 0
	}
	rng := mrand.New(mrand.NewSource(11))
	a := make([]ff.Fr, d.N)
	for i := range a {
		a[i].SetPseudoRandom(rng)
	}
	return medianPerOp(1, func() { d.NTT(a) })
}
