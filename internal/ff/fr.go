package ff

import (
	"crypto/rand"
	"fmt"
	"math/big"
	mrand "math/rand"
)

// Fr is an element of the BN254 scalar field, in Montgomery form.
type Fr [4]uint64

// RModulus returns the scalar-field prime as a new big.Int.
func RModulus() *big.Int { return new(big.Int).Set(rBig) }

// NewFr returns the field element for v.
func NewFr(v uint64) Fr {
	var z Fr
	z.SetUint64(v)
	return z
}

// Set sets z = x and returns z.
func (z *Fr) Set(x *Fr) *Fr { *z = *x; return z }

// SetZero sets z = 0 and returns z.
func (z *Fr) SetZero() *Fr { *z = Fr{}; return z }

// SetOne sets z = 1 and returns z.
func (z *Fr) SetOne() *Fr { *z = frOne; return z }

// SetUint64 sets z = v and returns z.
func (z *Fr) SetUint64(v uint64) *Fr {
	raw := [4]uint64{v, 0, 0, 0}
	mulFr((*[4]uint64)(z), &raw, &frR2)
	return z
}

// SetInt64 sets z = v (which may be negative) and returns z.
func (z *Fr) SetInt64(v int64) *Fr {
	if v >= 0 {
		return z.SetUint64(uint64(v))
	}
	z.SetUint64(uint64(-v))
	return z.Neg(z)
}

// SetBig sets z to v mod p and returns z.
func (z *Fr) SetBig(v *big.Int) *Fr {
	var raw [4]uint64
	bigToLimbs(new(big.Int).Mod(v, rBig), &raw)
	mulFr((*[4]uint64)(z), &raw, &frR2)
	return z
}

// Big returns the canonical (non-Montgomery) value of z.
func (z *Fr) Big() *big.Int {
	c := z.Canonical()
	return limbsToBig(&c)
}

// Mul sets z = x*y and returns z.
func (z *Fr) Mul(x, y *Fr) *Fr {
	mulFr((*[4]uint64)(z), (*[4]uint64)(x), (*[4]uint64)(y))
	return z
}

// Square sets z = x² and returns z.
func (z *Fr) Square(x *Fr) *Fr { return z.Mul(x, x) }

// Add sets z = x+y and returns z.
func (z *Fr) Add(x, y *Fr) *Fr {
	addFr((*[4]uint64)(z), (*[4]uint64)(x), (*[4]uint64)(y))
	return z
}

// Sub sets z = x−y and returns z.
func (z *Fr) Sub(x, y *Fr) *Fr {
	subFr((*[4]uint64)(z), (*[4]uint64)(x), (*[4]uint64)(y))
	return z
}

// Neg sets z = −x and returns z.
func (z *Fr) Neg(x *Fr) *Fr {
	negFr((*[4]uint64)(z), (*[4]uint64)(x))
	return z
}

// Double sets z = 2x and returns z.
func (z *Fr) Double(x *Fr) *Fr { return z.Add(x, x) }

// Inverse sets z = x⁻¹ and returns z. The inverse of 0 is 0.
func (z *Fr) Inverse(x *Fr) *Fr {
	v := x.Big()
	if v.Sign() == 0 {
		return z.SetZero()
	}
	v.ModInverse(v, rBig)
	return z.SetBig(v)
}

// Exp sets z = x^e and returns z. Negative exponents invert first.
func (z *Fr) Exp(x *Fr, e *big.Int) *Fr {
	var base Fr
	base.Set(x)
	if e.Sign() < 0 {
		base.Inverse(&base)
		e = new(big.Int).Neg(e)
	}
	z.SetOne()
	for i := e.BitLen() - 1; i >= 0; i-- {
		z.Square(z)
		if e.Bit(i) == 1 {
			z.Mul(z, &base)
		}
	}
	return z
}

// Equal reports whether z == x.
func (z *Fr) Equal(x *Fr) bool { return *z == *x }

// IsZero reports whether z == 0.
func (z *Fr) IsZero() bool { return *z == Fr{} }

// IsOne reports whether z == 1.
func (z *Fr) IsOne() bool { return *z == frOne }

// SetRandom sets z to a uniformly random element using crypto/rand.
func (z *Fr) SetRandom() *Fr {
	v, err := rand.Int(rand.Reader, rBig)
	if err != nil {
		panic(fmt.Sprintf("ff: crypto/rand failure: %v", err))
	}
	return z.SetBig(v)
}

// SetPseudoRandom sets z from a deterministic source, for tests and benches.
func (z *Fr) SetPseudoRandom(rng *mrand.Rand) *Fr {
	v := new(big.Int).Rand(rng, rBig)
	return z.SetBig(v)
}

// Bytes returns the canonical 32-byte big-endian encoding of z. It is
// allocation-free (pure limb arithmetic, no math/big) — this is the
// prover's hottest serialization path.
func (z *Fr) Bytes() [32]byte {
	canon := z.Canonical()
	var out [32]byte
	limbsToBytesBE(&canon, &out)
	return out
}

// SetBytes interprets b as a big-endian integer mod r. Inputs of at most
// 32 bytes take an allocation-free limb path; longer inputs fall back to
// math/big.
func (z *Fr) SetBytes(b []byte) *Fr {
	if len(b) <= 32 {
		var raw [4]uint64
		limbsFromBytesBE(b, &raw)
		mulFr((*[4]uint64)(z), &raw, &frR2)
		return z
	}
	return z.SetBig(new(big.Int).SetBytes(b))
}

// SetBytesWide interprets up to 64 big-endian bytes as an integer mod r
// without allocating: the value hi·2^256 + lo enters Montgomery form as
// toMont(hi)·R2 + toMont(lo) (R2 = 2^512 mod r is the Montgomery form of
// 2^256). Transcript challenges reduce 48 uniform bytes through this.
func (z *Fr) SetBytesWide(b []byte) *Fr {
	if len(b) <= 32 {
		return z.SetBytes(b)
	}
	if len(b) > 64 {
		return z.SetBig(new(big.Int).SetBytes(b))
	}
	split := len(b) - 32
	var raw, hi [4]uint64
	limbsFromBytesBE(b[:split], &raw)
	mulFr(&hi, &raw, &frR2)
	mulFr(&hi, &hi, &frR2)
	limbsFromBytesBE(b[split:], &raw)
	mulFr((*[4]uint64)(z), &raw, &frR2)
	return z.Add(z, (*Fr)(&hi))
}

// String renders the canonical value in decimal.
func (z *Fr) String() string { return z.Big().String() }

// Canonical returns the non-Montgomery (canonical) little-endian limbs of z.
func (z *Fr) Canonical() [4]uint64 {
	one := [4]uint64{1, 0, 0, 0}
	var out [4]uint64
	mulFr(&out, (*[4]uint64)(z), &one)
	return out
}
