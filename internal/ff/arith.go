package ff

import "math/bits"

// These kernels are the package's only modular arithmetic. Each prime has
// its own copy with the modulus limbs and −m⁻¹ mod 2^64 as constants; the
// package comment states the conditions they rely on. z may alias x and y
// everywhere: no limb of z is written before the inputs it overwrites
// have been read.
//
// The Montgomery product is the no-carry CIOS variant. Each round adds one
// row x_i·y into a five-limb accumulator t0..t4, then adds m·modulus
// (m = t0·(−m⁻¹), which clears t0) and shifts down one limb. In each row
// the low words of the 128-bit products go into one carry chain and the
// high words into a second, so neither needs a sixth limb. With y < m the
// accumulator stays below 2m < 2^256 after every round, so the top limb
// of each shifted sum fits in 64 bits and the carries out of it are zero.

// mulFr sets z = x·y·R⁻¹ mod r. y must be < r; x may be any 256-bit value.
func mulFr(z, x, y *[4]uint64) {
	y0, y1, y2, y3 := y[0], y[1], y[2], y[3]
	var t0, t1, t2, t3, t4, u0, u1, u2, u3, c, lo, m uint64

	// Round 0: t = x0·y, then t = (t + m·r) / 2^64.
	v := x[0]
	u0, t0 = bits.Mul64(v, y0)
	u1, t1 = bits.Mul64(v, y1)
	u2, t2 = bits.Mul64(v, y2)
	u3, t3 = bits.Mul64(v, y3)
	t1, c = bits.Add64(t1, u0, 0)
	t2, c = bits.Add64(t2, u1, c)
	t3, c = bits.Add64(t3, u2, c)
	t4 = u3 + c
	m = t0 * frInv
	u0, lo = bits.Mul64(m, fr0)
	_, c = bits.Add64(t0, lo, 0)
	u1, lo = bits.Mul64(m, fr1)
	t0, c = bits.Add64(t1, lo, c)
	u2, lo = bits.Mul64(m, fr2)
	t1, c = bits.Add64(t2, lo, c)
	u3, lo = bits.Mul64(m, fr3)
	t2, c = bits.Add64(t3, lo, c)
	u3 += c
	t0, c = bits.Add64(t0, u0, 0)
	t1, c = bits.Add64(t1, u1, c)
	t2, c = bits.Add64(t2, u2, c)
	t3 = t4 + u3 + c

	// Round 1: t += x1·y, then t = (t + m·r) / 2^64.
	v = x[1]
	u0, lo = bits.Mul64(v, y0)
	t0, c = bits.Add64(t0, lo, 0)
	u1, lo = bits.Mul64(v, y1)
	t1, c = bits.Add64(t1, lo, c)
	u2, lo = bits.Mul64(v, y2)
	t2, c = bits.Add64(t2, lo, c)
	u3, lo = bits.Mul64(v, y3)
	t3, t4 = bits.Add64(t3, lo, c)
	t1, c = bits.Add64(t1, u0, 0)
	t2, c = bits.Add64(t2, u1, c)
	t3, c = bits.Add64(t3, u2, c)
	t4 += u3 + c
	m = t0 * frInv
	u0, lo = bits.Mul64(m, fr0)
	_, c = bits.Add64(t0, lo, 0)
	u1, lo = bits.Mul64(m, fr1)
	t0, c = bits.Add64(t1, lo, c)
	u2, lo = bits.Mul64(m, fr2)
	t1, c = bits.Add64(t2, lo, c)
	u3, lo = bits.Mul64(m, fr3)
	t2, c = bits.Add64(t3, lo, c)
	u3 += c
	t0, c = bits.Add64(t0, u0, 0)
	t1, c = bits.Add64(t1, u1, c)
	t2, c = bits.Add64(t2, u2, c)
	t3 = t4 + u3 + c

	// Round 2: t += x2·y, then t = (t + m·r) / 2^64.
	v = x[2]
	u0, lo = bits.Mul64(v, y0)
	t0, c = bits.Add64(t0, lo, 0)
	u1, lo = bits.Mul64(v, y1)
	t1, c = bits.Add64(t1, lo, c)
	u2, lo = bits.Mul64(v, y2)
	t2, c = bits.Add64(t2, lo, c)
	u3, lo = bits.Mul64(v, y3)
	t3, t4 = bits.Add64(t3, lo, c)
	t1, c = bits.Add64(t1, u0, 0)
	t2, c = bits.Add64(t2, u1, c)
	t3, c = bits.Add64(t3, u2, c)
	t4 += u3 + c
	m = t0 * frInv
	u0, lo = bits.Mul64(m, fr0)
	_, c = bits.Add64(t0, lo, 0)
	u1, lo = bits.Mul64(m, fr1)
	t0, c = bits.Add64(t1, lo, c)
	u2, lo = bits.Mul64(m, fr2)
	t1, c = bits.Add64(t2, lo, c)
	u3, lo = bits.Mul64(m, fr3)
	t2, c = bits.Add64(t3, lo, c)
	u3 += c
	t0, c = bits.Add64(t0, u0, 0)
	t1, c = bits.Add64(t1, u1, c)
	t2, c = bits.Add64(t2, u2, c)
	t3 = t4 + u3 + c

	// Round 3: t += x3·y, then t = (t + m·r) / 2^64.
	v = x[3]
	u0, lo = bits.Mul64(v, y0)
	t0, c = bits.Add64(t0, lo, 0)
	u1, lo = bits.Mul64(v, y1)
	t1, c = bits.Add64(t1, lo, c)
	u2, lo = bits.Mul64(v, y2)
	t2, c = bits.Add64(t2, lo, c)
	u3, lo = bits.Mul64(v, y3)
	t3, t4 = bits.Add64(t3, lo, c)
	t1, c = bits.Add64(t1, u0, 0)
	t2, c = bits.Add64(t2, u1, c)
	t3, c = bits.Add64(t3, u2, c)
	t4 += u3 + c
	m = t0 * frInv
	u0, lo = bits.Mul64(m, fr0)
	_, c = bits.Add64(t0, lo, 0)
	u1, lo = bits.Mul64(m, fr1)
	t0, c = bits.Add64(t1, lo, c)
	u2, lo = bits.Mul64(m, fr2)
	t1, c = bits.Add64(t2, lo, c)
	u3, lo = bits.Mul64(m, fr3)
	t2, c = bits.Add64(t3, lo, c)
	u3 += c
	t0, c = bits.Add64(t0, u0, 0)
	t1, c = bits.Add64(t1, u1, c)
	t2, c = bits.Add64(t2, u2, c)
	t3 = t4 + u3 + c

	z[0], z[1], z[2], z[3] = reduceFr(t0, t1, t2, t3)
}

// reduceFr returns t − r if t ≥ r, else t; t must be < 2r.
func reduceFr(t0, t1, t2, t3 uint64) (uint64, uint64, uint64, uint64) {
	s0, b := bits.Sub64(t0, fr0, 0)
	s1, b := bits.Sub64(t1, fr1, b)
	s2, b := bits.Sub64(t2, fr2, b)
	s3, b := bits.Sub64(t3, fr3, b)
	if b != 0 {
		return t0, t1, t2, t3
	}
	return s0, s1, s2, s3
}

// addFr sets z = x + y mod r. x, y < r < 2^255, so the sum cannot carry
// out of four limbs.
func addFr(z, x, y *[4]uint64) {
	t0, c := bits.Add64(x[0], y[0], 0)
	t1, c := bits.Add64(x[1], y[1], c)
	t2, c := bits.Add64(x[2], y[2], c)
	t3, _ := bits.Add64(x[3], y[3], c)
	z[0], z[1], z[2], z[3] = reduceFr(t0, t1, t2, t3)
}

// subFr sets z = x − y mod r.
func subFr(z, x, y *[4]uint64) {
	var b uint64
	z[0], b = bits.Sub64(x[0], y[0], 0)
	z[1], b = bits.Sub64(x[1], y[1], b)
	z[2], b = bits.Sub64(x[2], y[2], b)
	z[3], b = bits.Sub64(x[3], y[3], b)
	if b != 0 {
		var c uint64
		z[0], c = bits.Add64(z[0], fr0, 0)
		z[1], c = bits.Add64(z[1], fr1, c)
		z[2], c = bits.Add64(z[2], fr2, c)
		z[3], _ = bits.Add64(z[3], fr3, c)
	}
}

// negFr sets z = −x mod r.
func negFr(z, x *[4]uint64) {
	if x[0]|x[1]|x[2]|x[3] == 0 {
		*z = [4]uint64{}
		return
	}
	var b uint64
	z[0], b = bits.Sub64(fr0, x[0], 0)
	z[1], b = bits.Sub64(fr1, x[1], b)
	z[2], b = bits.Sub64(fr2, x[2], b)
	z[3], _ = bits.Sub64(fr3, x[3], b)
}

// mulFp sets z = x·y·R⁻¹ mod p. y must be < p; x may be any 256-bit value.
func mulFp(z, x, y *[4]uint64) {
	y0, y1, y2, y3 := y[0], y[1], y[2], y[3]
	var t0, t1, t2, t3, t4, u0, u1, u2, u3, c, lo, m uint64

	// Round 0: t = x0·y, then t = (t + m·p) / 2^64.
	v := x[0]
	u0, t0 = bits.Mul64(v, y0)
	u1, t1 = bits.Mul64(v, y1)
	u2, t2 = bits.Mul64(v, y2)
	u3, t3 = bits.Mul64(v, y3)
	t1, c = bits.Add64(t1, u0, 0)
	t2, c = bits.Add64(t2, u1, c)
	t3, c = bits.Add64(t3, u2, c)
	t4 = u3 + c
	m = t0 * fpInv
	u0, lo = bits.Mul64(m, fp0)
	_, c = bits.Add64(t0, lo, 0)
	u1, lo = bits.Mul64(m, fp1)
	t0, c = bits.Add64(t1, lo, c)
	u2, lo = bits.Mul64(m, fp2)
	t1, c = bits.Add64(t2, lo, c)
	u3, lo = bits.Mul64(m, fp3)
	t2, c = bits.Add64(t3, lo, c)
	u3 += c
	t0, c = bits.Add64(t0, u0, 0)
	t1, c = bits.Add64(t1, u1, c)
	t2, c = bits.Add64(t2, u2, c)
	t3 = t4 + u3 + c

	// Round 1: t += x1·y, then t = (t + m·p) / 2^64.
	v = x[1]
	u0, lo = bits.Mul64(v, y0)
	t0, c = bits.Add64(t0, lo, 0)
	u1, lo = bits.Mul64(v, y1)
	t1, c = bits.Add64(t1, lo, c)
	u2, lo = bits.Mul64(v, y2)
	t2, c = bits.Add64(t2, lo, c)
	u3, lo = bits.Mul64(v, y3)
	t3, t4 = bits.Add64(t3, lo, c)
	t1, c = bits.Add64(t1, u0, 0)
	t2, c = bits.Add64(t2, u1, c)
	t3, c = bits.Add64(t3, u2, c)
	t4 += u3 + c
	m = t0 * fpInv
	u0, lo = bits.Mul64(m, fp0)
	_, c = bits.Add64(t0, lo, 0)
	u1, lo = bits.Mul64(m, fp1)
	t0, c = bits.Add64(t1, lo, c)
	u2, lo = bits.Mul64(m, fp2)
	t1, c = bits.Add64(t2, lo, c)
	u3, lo = bits.Mul64(m, fp3)
	t2, c = bits.Add64(t3, lo, c)
	u3 += c
	t0, c = bits.Add64(t0, u0, 0)
	t1, c = bits.Add64(t1, u1, c)
	t2, c = bits.Add64(t2, u2, c)
	t3 = t4 + u3 + c

	// Round 2: t += x2·y, then t = (t + m·p) / 2^64.
	v = x[2]
	u0, lo = bits.Mul64(v, y0)
	t0, c = bits.Add64(t0, lo, 0)
	u1, lo = bits.Mul64(v, y1)
	t1, c = bits.Add64(t1, lo, c)
	u2, lo = bits.Mul64(v, y2)
	t2, c = bits.Add64(t2, lo, c)
	u3, lo = bits.Mul64(v, y3)
	t3, t4 = bits.Add64(t3, lo, c)
	t1, c = bits.Add64(t1, u0, 0)
	t2, c = bits.Add64(t2, u1, c)
	t3, c = bits.Add64(t3, u2, c)
	t4 += u3 + c
	m = t0 * fpInv
	u0, lo = bits.Mul64(m, fp0)
	_, c = bits.Add64(t0, lo, 0)
	u1, lo = bits.Mul64(m, fp1)
	t0, c = bits.Add64(t1, lo, c)
	u2, lo = bits.Mul64(m, fp2)
	t1, c = bits.Add64(t2, lo, c)
	u3, lo = bits.Mul64(m, fp3)
	t2, c = bits.Add64(t3, lo, c)
	u3 += c
	t0, c = bits.Add64(t0, u0, 0)
	t1, c = bits.Add64(t1, u1, c)
	t2, c = bits.Add64(t2, u2, c)
	t3 = t4 + u3 + c

	// Round 3: t += x3·y, then t = (t + m·p) / 2^64.
	v = x[3]
	u0, lo = bits.Mul64(v, y0)
	t0, c = bits.Add64(t0, lo, 0)
	u1, lo = bits.Mul64(v, y1)
	t1, c = bits.Add64(t1, lo, c)
	u2, lo = bits.Mul64(v, y2)
	t2, c = bits.Add64(t2, lo, c)
	u3, lo = bits.Mul64(v, y3)
	t3, t4 = bits.Add64(t3, lo, c)
	t1, c = bits.Add64(t1, u0, 0)
	t2, c = bits.Add64(t2, u1, c)
	t3, c = bits.Add64(t3, u2, c)
	t4 += u3 + c
	m = t0 * fpInv
	u0, lo = bits.Mul64(m, fp0)
	_, c = bits.Add64(t0, lo, 0)
	u1, lo = bits.Mul64(m, fp1)
	t0, c = bits.Add64(t1, lo, c)
	u2, lo = bits.Mul64(m, fp2)
	t1, c = bits.Add64(t2, lo, c)
	u3, lo = bits.Mul64(m, fp3)
	t2, c = bits.Add64(t3, lo, c)
	u3 += c
	t0, c = bits.Add64(t0, u0, 0)
	t1, c = bits.Add64(t1, u1, c)
	t2, c = bits.Add64(t2, u2, c)
	t3 = t4 + u3 + c

	z[0], z[1], z[2], z[3] = reduceFp(t0, t1, t2, t3)
}

// reduceFp returns t − p if t ≥ p, else t; t must be < 2p.
func reduceFp(t0, t1, t2, t3 uint64) (uint64, uint64, uint64, uint64) {
	s0, b := bits.Sub64(t0, fp0, 0)
	s1, b := bits.Sub64(t1, fp1, b)
	s2, b := bits.Sub64(t2, fp2, b)
	s3, b := bits.Sub64(t3, fp3, b)
	if b != 0 {
		return t0, t1, t2, t3
	}
	return s0, s1, s2, s3
}

// addFp sets z = x + y mod p. x, y < p < 2^255, so the sum cannot carry
// out of four limbs.
func addFp(z, x, y *[4]uint64) {
	t0, c := bits.Add64(x[0], y[0], 0)
	t1, c := bits.Add64(x[1], y[1], c)
	t2, c := bits.Add64(x[2], y[2], c)
	t3, _ := bits.Add64(x[3], y[3], c)
	z[0], z[1], z[2], z[3] = reduceFp(t0, t1, t2, t3)
}

// subFp sets z = x − y mod p.
func subFp(z, x, y *[4]uint64) {
	var b uint64
	z[0], b = bits.Sub64(x[0], y[0], 0)
	z[1], b = bits.Sub64(x[1], y[1], b)
	z[2], b = bits.Sub64(x[2], y[2], b)
	z[3], b = bits.Sub64(x[3], y[3], b)
	if b != 0 {
		var c uint64
		z[0], c = bits.Add64(z[0], fp0, 0)
		z[1], c = bits.Add64(z[1], fp1, c)
		z[2], c = bits.Add64(z[2], fp2, c)
		z[3], _ = bits.Add64(z[3], fp3, c)
	}
}

// negFp sets z = −x mod p.
func negFp(z, x *[4]uint64) {
	if x[0]|x[1]|x[2]|x[3] == 0 {
		*z = [4]uint64{}
		return
	}
	var b uint64
	z[0], b = bits.Sub64(fp0, x[0], 0)
	z[1], b = bits.Sub64(fp1, x[1], b)
	z[2], b = bits.Sub64(fp2, x[2], b)
	z[3], _ = bits.Sub64(fp3, x[3], b)
}
