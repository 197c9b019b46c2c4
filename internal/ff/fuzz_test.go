package ff

import (
	"bytes"
	"math/big"
	"testing"
)

// FuzzFrSetBytesRoundTrip: SetBytes must accept arbitrary byte strings
// without panicking, reduce them mod r, and reach a fixed point — the
// canonical 32-byte encoding re-parses to the same element, and an input
// that is already canonical survives the round trip bit-for-bit.
func FuzzFrSetBytesRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0})
	f.Add([]byte{1})
	f.Add(bytes.Repeat([]byte{0xff}, 32))
	f.Add(bytes.Repeat([]byte{0xff}, 64))
	rMinusOne := new(big.Int).Sub(RModulus(), big.NewInt(1))
	var canon [32]byte
	rMinusOne.FillBytes(canon[:])
	f.Add(canon[:])
	var modBytes [32]byte
	RModulus().FillBytes(modBytes[:])
	f.Add(modBytes[:])

	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) > 128 {
			b = b[:128]
		}
		var z Fr
		z.SetBytes(b)

		c := z.Bytes()
		var z2 Fr
		z2.SetBytes(c[:])
		if !z.Equal(&z2) {
			t.Fatalf("canonical re-parse changed the element: %v != %v", z.String(), z2.String())
		}
		c2 := z2.Bytes()
		if c != c2 {
			t.Fatalf("Bytes is not a fixed point after one reduction")
		}

		// The canonical encoding must be reduced, and must agree with the
		// reference big.Int reduction of the input.
		want := new(big.Int).SetBytes(b)
		want.Mod(want, RModulus())
		if got := new(big.Int).SetBytes(c[:]); got.Cmp(want) != 0 {
			t.Fatalf("SetBytes(%x) = %v, want %v", b, got, want)
		}

		// A 32-byte input that is already canonical round-trips exactly.
		if len(b) == 32 && new(big.Int).SetBytes(b).Cmp(RModulus()) < 0 && !bytes.Equal(c[:], b) {
			t.Fatalf("canonical input %x re-encoded as %x", b, c)
		}
	})
}

// fuzzMul checks Mul against math/big on two arbitrary operands of up to
// 32 bytes each (reduced by SetBytes), limb for limb in Montgomery form,
// including the z = x = y squaring alias. The edge values 0, 1, m−1, m−2,
// (m−1)/2 and R mod m seed the corpus.
func fuzzMul[E ~[4]uint64, P fieldElem[E]](f *testing.F, m *big.Int) {
	edges := edgeValues(m)
	for _, a := range edges {
		for _, b := range edges {
			var ab, bb [32]byte
			a.FillBytes(ab[:])
			b.FillBytes(bb[:])
			f.Add(ab[:], bb[:])
		}
	}
	f.Add(bytes.Repeat([]byte{0xff}, 32), bytes.Repeat([]byte{0xff}, 32))

	f.Fuzz(func(t *testing.T, a, b []byte) {
		if len(a) > 32 {
			a = a[:32]
		}
		if len(b) > 32 {
			b = b[:32]
		}
		av := new(big.Int).SetBytes(a)
		bv := new(big.Int).SetBytes(b)
		var x, y, z E
		P(&x).SetBytes(a)
		P(&y).SetBytes(b)
		P(&z).Mul(&x, &y)
		want := new(big.Int).Mul(av, bv)
		want.Mod(want, m)
		if [4]uint64(z) != montLimbs(want, m) {
			t.Fatalf("Mul(%x, %x): got limbs %x, want %v", a, b, [4]uint64(z), want)
		}
		if c := P(&z).Bytes(); new(big.Int).SetBytes(c[:]).Cmp(want) != 0 {
			t.Fatalf("Mul(%x, %x): Bytes() = %x, want %v", a, b, c, want)
		}
		z = x
		P(&z).Mul(&z, &z)
		want.Mul(av, av).Mod(want, m)
		if [4]uint64(z) != montLimbs(want, m) {
			t.Fatalf("Mul(z, z) with z = %x: got limbs %x, want %v", a, [4]uint64(z), want)
		}
	})
}

func FuzzFrMul(f *testing.F) { fuzzMul[Fr](f, rBig) }

func FuzzFpMul(f *testing.F) { fuzzMul[Fp](f, pBig) }
