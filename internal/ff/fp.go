package ff

import (
	"crypto/rand"
	"fmt"
	"math/big"
	mrand "math/rand"
)

// Fp is an element of the BN254 base field, in Montgomery form.
type Fp [4]uint64

// PModulus returns the base-field prime as a new big.Int.
func PModulus() *big.Int { return new(big.Int).Set(pBig) }

// NewFp returns the field element for v.
func NewFp(v uint64) Fp {
	var z Fp
	z.SetUint64(v)
	return z
}

// Set sets z = x and returns z.
func (z *Fp) Set(x *Fp) *Fp { *z = *x; return z }

// SetZero sets z = 0 and returns z.
func (z *Fp) SetZero() *Fp { *z = Fp{}; return z }

// SetOne sets z = 1 and returns z.
func (z *Fp) SetOne() *Fp { *z = fpOne; return z }

// SetUint64 sets z = v and returns z.
func (z *Fp) SetUint64(v uint64) *Fp {
	raw := [4]uint64{v, 0, 0, 0}
	mulFp((*[4]uint64)(z), &raw, &fpR2)
	return z
}

// SetInt64 sets z = v (which may be negative) and returns z.
func (z *Fp) SetInt64(v int64) *Fp {
	if v >= 0 {
		return z.SetUint64(uint64(v))
	}
	z.SetUint64(uint64(-v))
	return z.Neg(z)
}

// SetBig sets z to v mod p and returns z.
func (z *Fp) SetBig(v *big.Int) *Fp {
	var raw [4]uint64
	bigToLimbs(new(big.Int).Mod(v, pBig), &raw)
	mulFp((*[4]uint64)(z), &raw, &fpR2)
	return z
}

// Big returns the canonical (non-Montgomery) value of z.
func (z *Fp) Big() *big.Int {
	c := z.Canonical()
	return limbsToBig(&c)
}

// Mul sets z = x*y and returns z.
func (z *Fp) Mul(x, y *Fp) *Fp {
	mulFp((*[4]uint64)(z), (*[4]uint64)(x), (*[4]uint64)(y))
	return z
}

// Square sets z = x² and returns z.
func (z *Fp) Square(x *Fp) *Fp { return z.Mul(x, x) }

// Add sets z = x+y and returns z.
func (z *Fp) Add(x, y *Fp) *Fp {
	addFp((*[4]uint64)(z), (*[4]uint64)(x), (*[4]uint64)(y))
	return z
}

// Sub sets z = x−y and returns z.
func (z *Fp) Sub(x, y *Fp) *Fp {
	subFp((*[4]uint64)(z), (*[4]uint64)(x), (*[4]uint64)(y))
	return z
}

// Neg sets z = −x and returns z.
func (z *Fp) Neg(x *Fp) *Fp {
	negFp((*[4]uint64)(z), (*[4]uint64)(x))
	return z
}

// Double sets z = 2x and returns z.
func (z *Fp) Double(x *Fp) *Fp { return z.Add(x, x) }

// Inverse sets z = x⁻¹ and returns z. The inverse of 0 is 0.
func (z *Fp) Inverse(x *Fp) *Fp {
	v := x.Big()
	if v.Sign() == 0 {
		return z.SetZero()
	}
	v.ModInverse(v, pBig)
	return z.SetBig(v)
}

// Exp sets z = x^e and returns z. Negative exponents invert first.
func (z *Fp) Exp(x *Fp, e *big.Int) *Fp {
	var base Fp
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
func (z *Fp) Equal(x *Fp) bool { return *z == *x }

// IsZero reports whether z == 0.
func (z *Fp) IsZero() bool { return *z == Fp{} }

// IsOne reports whether z == 1.
func (z *Fp) IsOne() bool { return *z == fpOne }

// SetRandom sets z to a uniformly random element using crypto/rand.
func (z *Fp) SetRandom() *Fp {
	v, err := rand.Int(rand.Reader, pBig)
	if err != nil {
		panic(fmt.Sprintf("ff: crypto/rand failure: %v", err))
	}
	return z.SetBig(v)
}

// SetPseudoRandom sets z from a deterministic source, for tests and benches.
func (z *Fp) SetPseudoRandom(rng *mrand.Rand) *Fp {
	v := new(big.Int).Rand(rng, pBig)
	return z.SetBig(v)
}

// Bytes returns the canonical 32-byte big-endian encoding of z,
// allocation-free (pure limb arithmetic, no math/big).
func (z *Fp) Bytes() [32]byte {
	canon := z.Canonical()
	var out [32]byte
	limbsToBytesBE(&canon, &out)
	return out
}

// SetBytes interprets b as a big-endian integer mod p. Inputs of at most
// 32 bytes take an allocation-free limb path.
func (z *Fp) SetBytes(b []byte) *Fp {
	if len(b) <= 32 {
		var raw [4]uint64
		limbsFromBytesBE(b, &raw)
		mulFp((*[4]uint64)(z), &raw, &fpR2)
		return z
	}
	return z.SetBig(new(big.Int).SetBytes(b))
}

// String renders the canonical value in decimal.
func (z *Fp) String() string { return z.Big().String() }

// Canonical returns the non-Montgomery (canonical) little-endian limbs of z.
func (z *Fp) Canonical() [4]uint64 {
	one := [4]uint64{1, 0, 0, 0}
	var out [4]uint64
	mulFp(&out, (*[4]uint64)(z), &one)
	return out
}
