package ff

import (
	"bytes"
	"fmt"
	"math/big"
	mrand "math/rand"
	"testing"
	"testing/quick"
)

func randFr(rng *mrand.Rand) Fr {
	var z Fr
	z.SetPseudoRandom(rng)
	return z
}

func randFp(rng *mrand.Rand) Fp {
	var z Fp
	z.SetPseudoRandom(rng)
	return z
}

func TestFpRoundTripBig(t *testing.T) {
	rng := mrand.New(mrand.NewSource(1))
	for i := 0; i < 200; i++ {
		v := new(big.Int).Rand(rng, pBig)
		var x Fp
		x.SetBig(v)
		if got := x.Big(); got.Cmp(v) != 0 {
			t.Fatalf("roundtrip mismatch: got %v want %v", got, v)
		}
	}
}

func TestFrRoundTripBig(t *testing.T) {
	rng := mrand.New(mrand.NewSource(2))
	for i := 0; i < 200; i++ {
		v := new(big.Int).Rand(rng, rBig)
		var x Fr
		x.SetBig(v)
		if got := x.Big(); got.Cmp(v) != 0 {
			t.Fatalf("roundtrip mismatch: got %v want %v", got, v)
		}
	}
}

// fieldElem is the method set the differential tests drive; *Fr and *Fp
// both satisfy it.
type fieldElem[E ~[4]uint64] interface {
	*E
	SetBig(v *big.Int) *E
	SetBytes(b []byte) *E
	Bytes() [32]byte
	Mul(x, y *E) *E
	Square(x *E) *E
	Add(x, y *E) *E
	Sub(x, y *E) *E
	Neg(x *E) *E
	Double(x *E) *E
}

// montLimbs is the reference Montgomery representation v·2^256 mod m as
// little-endian limbs: a fully reduced result must match it limb for limb.
func montLimbs(v, m *big.Int) [4]uint64 {
	t := new(big.Int).Lsh(v, 256)
	t.Mod(t, m)
	var out [4]uint64
	bigToLimbs(t, &out)
	return out
}

// edgeValues returns 0, 1, m−1, m−2, (m−1)/2 and R mod m.
func edgeValues(m *big.Int) []*big.Int {
	one := big.NewInt(1)
	r := new(big.Int).Lsh(one, 256)
	return []*big.Int{
		new(big.Int),
		one,
		new(big.Int).Sub(m, one),
		new(big.Int).Sub(m, big.NewInt(2)),
		new(big.Int).Rsh(new(big.Int).Sub(m, one), 1),
		r.Mod(r, m),
	}
}

// checkArithMatchesBig compares Mul, Square, Add, Sub, Neg and Double
// against math/big, limb for limb in Montgomery form, on random
// operands, the edge values, every aliasing of z with x and y, and
// unreduced 32-byte SetBytes inputs.
func checkArithMatchesBig[E ~[4]uint64, P fieldElem[E]](t *testing.T, m *big.Int, seed int64) {
	t.Helper()
	rng := mrand.New(mrand.NewSource(seed))
	elem := func(v *big.Int) E {
		var e E
		P(&e).SetBig(v)
		return e
	}
	check := func(what string, got E, want *big.Int) {
		t.Helper()
		want = new(big.Int).Mod(want, m)
		if [4]uint64(got) != montLimbs(want, m) {
			t.Fatalf("%s: got limbs %x, want %v", what, [4]uint64(got), want)
		}
	}
	mul := func(a, b *big.Int) *big.Int { return new(big.Int).Mul(a, b) }
	add := func(a, b *big.Int) *big.Int { return new(big.Int).Add(a, b) }
	sub := func(a, b *big.Int) *big.Int { return new(big.Int).Sub(a, b) }

	for i := 0; i < 500; i++ {
		a := new(big.Int).Rand(rng, m)
		b := new(big.Int).Rand(rng, m)
		x, y := elem(a), elem(b)
		var z E
		P(&z).Mul(&x, &y)
		check("mul", z, mul(a, b))
	}

	edges := edgeValues(m)
	vals := append([]*big.Int(nil), edges...)
	for i := 0; i < 8; i++ {
		vals = append(vals, new(big.Int).Rand(rng, m))
	}
	for _, a := range vals {
		x := elem(a)
		var z E
		P(&z).Square(&x)
		check("square", z, mul(a, a))
		P(&z).Neg(&x)
		check("neg", z, new(big.Int).Neg(a))
		P(&z).Double(&x)
		check("double", z, add(a, a))

		// z = x aliasing of the unary ops.
		z = x
		P(&z).Square(&z)
		check("square z=x", z, mul(a, a))
		z = x
		P(&z).Neg(&z)
		check("neg z=x", z, new(big.Int).Neg(a))
		z = x
		P(&z).Double(&z)
		check("double z=x", z, add(a, a))

		for _, b := range vals {
			y := elem(b)
			binary := []struct {
				name string
				op   func(z P, x, y *E) *E
				ref  func(a, b *big.Int) *big.Int
			}{
				{"mul", P.Mul, mul},
				{"add", P.Add, add},
				{"sub", P.Sub, sub},
			}
			for _, op := range binary {
				op.op(P(&z), &x, &y)
				check(op.name, z, op.ref(a, b))
				z = x
				op.op(P(&z), &z, &y)
				check(op.name+" z=x", z, op.ref(a, b))
				z = y
				op.op(P(&z), &x, &z)
				check(op.name+" z=y", z, op.ref(a, b))
				z = x
				op.op(P(&z), &z, &z)
				check(op.name+" z=x=y", z, op.ref(a, a))
			}
		}
	}

	// Unreduced 32-byte inputs: SetBytes feeds limbs up to 2^256−1
	// straight into the Montgomery kernel.
	inputs := [][]byte{bytes.Repeat([]byte{0xff}, 32)}
	for _, e := range edges {
		var b [32]byte
		new(big.Int).Add(e, m).FillBytes(b[:]) // e+m < 2^256 for BN254
		inputs = append(inputs, b[:])
	}
	for len(inputs) < 200 {
		b := make([]byte, 32)
		rng.Read(b)
		if new(big.Int).SetBytes(b).Cmp(m) >= 0 {
			inputs = append(inputs, b)
		}
	}
	for _, b := range inputs {
		var z E
		P(&z).SetBytes(b)
		check(fmt.Sprintf("SetBytes(%x)", b), z, new(big.Int).SetBytes(b))
	}
}

func TestFpMulMatchesBig(t *testing.T) {
	checkArithMatchesBig[Fp](t, pBig, 3)
}

func TestFrMulMatchesBig(t *testing.T) {
	checkArithMatchesBig[Fr](t, rBig, 4)

	// SetBytesWide splits 33–64 bytes into an unreduced high part and an
	// unreduced 32-byte low part.
	rng := mrand.New(mrand.NewSource(40))
	inputs := [][]byte{bytes.Repeat([]byte{0xff}, 64), bytes.Repeat([]byte{0xff}, 48)}
	for i := 0; i < 200; i++ {
		b := make([]byte, 33+rng.Intn(32))
		rng.Read(b)
		inputs = append(inputs, b)
	}
	for _, b := range inputs {
		var z Fr
		z.SetBytesWide(b)
		want := new(big.Int).SetBytes(b)
		want.Mod(want, rBig)
		if [4]uint64(z) != montLimbs(want, rBig) {
			t.Fatalf("SetBytesWide(%x): got %v, want %v", b, z.Big(), want)
		}
	}
}

func TestFrFieldAxiomsQuick(t *testing.T) {
	rng := mrand.New(mrand.NewSource(5))
	comm := func(seedA, seedB int64) bool {
		a := randFr(rng)
		b := randFr(rng)
		var ab, ba Fr
		ab.Mul(&a, &b)
		ba.Mul(&b, &a)
		var s1, s2 Fr
		s1.Add(&a, &b)
		s2.Add(&b, &a)
		return ab.Equal(&ba) && s1.Equal(&s2)
	}
	if err := quick.Check(comm, nil); err != nil {
		t.Fatal(err)
	}
	assoc := func(_ int64) bool {
		a, b, c := randFr(rng), randFr(rng), randFr(rng)
		var l, r Fr
		l.Mul(&a, &b)
		l.Mul(&l, &c)
		r.Mul(&b, &c)
		r.Mul(&a, &r)
		return l.Equal(&r)
	}
	if err := quick.Check(assoc, nil); err != nil {
		t.Fatal(err)
	}
	distrib := func(_ int64) bool {
		a, b, c := randFr(rng), randFr(rng), randFr(rng)
		var l, r, t1, t2 Fr
		t1.Add(&b, &c)
		l.Mul(&a, &t1)
		t1.Mul(&a, &b)
		t2.Mul(&a, &c)
		r.Add(&t1, &t2)
		return l.Equal(&r)
	}
	if err := quick.Check(distrib, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFrInverse(t *testing.T) {
	rng := mrand.New(mrand.NewSource(6))
	for i := 0; i < 100; i++ {
		a := randFr(rng)
		if a.IsZero() {
			continue
		}
		var inv, prod Fr
		inv.Inverse(&a)
		prod.Mul(&a, &inv)
		if !prod.IsOne() {
			t.Fatalf("a * a^-1 != 1 for a=%v", &a)
		}
	}
	var z, zi Fr
	zi.Inverse(&z)
	if !zi.IsZero() {
		t.Fatal("Inverse(0) should be 0")
	}
}

func TestFpInverseAndNeg(t *testing.T) {
	rng := mrand.New(mrand.NewSource(7))
	for i := 0; i < 100; i++ {
		a := randFp(rng)
		if a.IsZero() {
			continue
		}
		var inv, prod, n, s Fp
		inv.Inverse(&a)
		prod.Mul(&a, &inv)
		if !prod.IsOne() {
			t.Fatal("a * a^-1 != 1")
		}
		n.Neg(&a)
		s.Add(&a, &n)
		if !s.IsZero() {
			t.Fatal("a + (-a) != 0")
		}
	}
}

func TestFrSubAddInverse(t *testing.T) {
	rng := mrand.New(mrand.NewSource(8))
	for i := 0; i < 200; i++ {
		a, b := randFr(rng), randFr(rng)
		var d, s Fr
		d.Sub(&a, &b)
		s.Add(&d, &b)
		if !s.Equal(&a) {
			t.Fatal("(a-b)+b != a")
		}
	}
}

func TestFrExp(t *testing.T) {
	rng := mrand.New(mrand.NewSource(9))
	a := randFr(rng)
	// Fermat: a^(r-1) = 1.
	exp := new(big.Int).Sub(rBig, big.NewInt(1))
	var res Fr
	res.Exp(&a, exp)
	if !res.IsOne() {
		t.Fatal("a^(r-1) != 1")
	}
	// a^5 == a*a*a*a*a
	var p5, m Fr
	p5.Exp(&a, big.NewInt(5))
	m.Mul(&a, &a)
	m.Mul(&m, &a)
	m.Mul(&m, &a)
	m.Mul(&m, &a)
	if !p5.Equal(&m) {
		t.Fatal("a^5 mismatch")
	}
	// negative exponent
	var pm1, inv Fr
	pm1.Exp(&a, big.NewInt(-1))
	inv.Inverse(&a)
	if !pm1.Equal(&inv) {
		t.Fatal("a^-1 mismatch")
	}
}

func TestFrSetInt64(t *testing.T) {
	var a, b, s Fr
	a.SetInt64(-7)
	b.SetUint64(7)
	s.Add(&a, &b)
	if !s.IsZero() {
		t.Fatal("SetInt64(-7) + 7 != 0")
	}
}

func TestFrBytesRoundTrip(t *testing.T) {
	rng := mrand.New(mrand.NewSource(10))
	for i := 0; i < 50; i++ {
		a := randFr(rng)
		buf := a.Bytes()
		var b Fr
		b.SetBytes(buf[:])
		if !a.Equal(&b) {
			t.Fatal("bytes roundtrip failed")
		}
	}
}

func TestFrAliasedOps(t *testing.T) {
	rng := mrand.New(mrand.NewSource(11))
	a := randFr(rng)
	want := new(big.Int).Mul(a.Big(), a.Big())
	want.Mod(want, rBig)
	a.Mul(&a, &a)
	if a.Big().Cmp(want) != 0 {
		t.Fatal("aliased square broken")
	}
	b := randFr(rng)
	wantSum := new(big.Int).Add(b.Big(), b.Big())
	wantSum.Mod(wantSum, rBig)
	b.Add(&b, &b)
	if b.Big().Cmp(wantSum) != 0 {
		t.Fatal("aliased add broken")
	}
}

func BenchmarkFrMul(b *testing.B) {
	rng := mrand.New(mrand.NewSource(12))
	x, y := randFr(rng), randFr(rng)
	var z Fr
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		z.Mul(&x, &y)
	}
	_ = z
}

func BenchmarkFpInverse(b *testing.B) {
	rng := mrand.New(mrand.NewSource(13))
	x := randFp(rng)
	var z Fp
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		z.Inverse(&x)
	}
}

// TestModulusConstants checks the kernels' hard-coded limbs, −m⁻¹ mod
// 2^64, R and R² against the decimal primes, and the no-carry condition
// (top limb < 2^63−1) the Montgomery product relies on.
func TestModulusConstants(t *testing.T) {
	two64 := new(big.Int).Lsh(big.NewInt(1), 64)
	for _, f := range []struct {
		name         string
		m            *big.Int
		limbs        [4]uint64
		inv          uint64
		one, r2Limbs [4]uint64
	}{
		{"r", rBig, [4]uint64{fr0, fr1, fr2, fr3}, frInv, frOne, frR2},
		{"p", pBig, [4]uint64{fp0, fp1, fp2, fp3}, fpInv, fpOne, fpR2},
	} {
		var want [4]uint64
		bigToLimbs(f.m, &want)
		if f.limbs != want {
			t.Errorf("%s: limbs %x, want %x", f.name, f.limbs, want)
		}
		if f.limbs[3] >= 1<<63-1 {
			t.Errorf("%s: top limb %#x breaks the no-carry condition", f.name, f.limbs[3])
		}
		inv := new(big.Int).ModInverse(new(big.Int).SetUint64(f.limbs[0]), two64)
		inv.Neg(inv).Mod(inv, two64)
		if f.inv != inv.Uint64() {
			t.Errorf("%s: −m⁻¹ mod 2^64 = %#x, want %#x", f.name, f.inv, inv.Uint64())
		}
		if f.one != montLimbs(big.NewInt(1), f.m) {
			t.Errorf("%s: R mod m mismatch", f.name)
		}
		if f.r2Limbs != montLimbs(new(big.Int).Lsh(big.NewInt(1), 256), f.m) {
			t.Errorf("%s: R² mod m mismatch", f.name)
		}
	}
}
