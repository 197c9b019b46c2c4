// Package ff implements the finite fields underlying the BN254 pairing
// curve: the base field Fp, the scalar field Fr, and the extension tower
// Fp2 → Fp6 → Fp12 used as the pairing target.
//
// Elements are stored as four 64-bit little-endian limbs in Montgomery form
// (R = 2^256). All arithmetic is constant-allocation; none of it is
// constant-time — this library targets benchmarking and research, not
// hostile side-channel environments.
//
// The arithmetic kernels (arith.go) are specific to the two BN254 primes:
// the modulus limbs and −m⁻¹ mod 2^64 are package constants and every
// loop is unrolled. The Montgomery product is the "no-carry" CIOS variant
// (the technique gnark-crypto uses), which keeps the running sum in a
// five-limb accumulator with no sixth-limb carry. It relies on two
// conditions:
//
//   - the top modulus limb is below 2^63−1 (both primes have top limb
//     0x30644e72e131a029), so m < 2^255 and the carry out of the fifth
//     limb is always zero;
//   - the full multiplicand y is < m. The word-scanned operand x may be
//     any 256-bit value, which is how unreduced SetBytes input enters
//     Montgomery form.
//
// Under both, the product before its final conditional subtraction is
// < 2m, so one subtraction leaves the unique fully reduced representative.
// Every constructor reduces, so Add, Sub and Neg likewise assume operands
// < m.
package ff

import "math/big"

// Decimal strings for the BN254 primes (EIP-196/197 alt_bn128).
const (
	pDec = "21888242871839275222246405745257275088696311157297823662689037894645226208583"
	rDec = "21888242871839275222246405745257275088548364400416034343698204186575808495617"
)

// Little-endian limbs of the scalar-field prime r and −r⁻¹ mod 2^64.
const (
	fr0   = 0x43e1f593f0000001
	fr1   = 0x2833e84879b97091
	fr2   = 0xb85045b68181585d
	fr3   = 0x30644e72e131a029
	frInv = 0xc2e1f593efffffff
)

// Little-endian limbs of the base-field prime p and −p⁻¹ mod 2^64.
const (
	fp0   = 0x3c208c16d87cfd47
	fp1   = 0x97816a916871ca8d
	fp2   = 0xb85045b68181585d
	fp3   = 0x30644e72e131a029
	fpInv = 0x87d20782e4866389
)

var (
	rBig = mustBig(rDec)
	pBig = mustBig(pDec)

	// frOne = R mod r is the Montgomery form of 1; frR2 = R² mod r maps
	// a raw value into Montgomery form with one product. Likewise for p.
	frOne = Fr{0xac96341c4ffffffb, 0x36fc76959f60cd29, 0x666ea36f7879462e, 0x0e0a77c19a07df2f}
	frR2  = [4]uint64{0x1bb8e645ae216da7, 0x53fe3ab1e35c59e3, 0x8c49833d53bb8085, 0x0216d0b17f4e44a5}
	fpOne = Fp{0xd35d438dc58f0d9d, 0x0a78eb28f5c70b3d, 0x666ea36f7879462c, 0x0e0a77c19a07df2f}
	fpR2  = [4]uint64{0xf32cfc5b538afa89, 0xb5e71911d44501fb, 0x47ab1eff0a417ff6, 0x06d89f71cab8351f}
)

func mustBig(dec string) *big.Int {
	v, ok := new(big.Int).SetString(dec, 10)
	if !ok {
		panic("ff: bad modulus literal")
	}
	return v
}

func bigToLimbs(v *big.Int, out *[4]uint64) {
	var buf [32]byte
	v.FillBytes(buf[:])
	for i := 0; i < 4; i++ {
		out[i] = be64(buf[32-8*(i+1):])
	}
}

func be64(b []byte) uint64 {
	return uint64(b[7]) | uint64(b[6])<<8 | uint64(b[5])<<16 | uint64(b[4])<<24 |
		uint64(b[3])<<32 | uint64(b[2])<<40 | uint64(b[1])<<48 | uint64(b[0])<<56
}

// limbsToBytesBE writes the little-endian limb vector as 32 big-endian
// bytes without going through math/big — this is the prover's hottest
// serialization (every transcript absorb and Merkle leaf).
func limbsToBytesBE(l *[4]uint64, out *[32]byte) {
	for i := 0; i < 4; i++ {
		v := l[i]
		for j := 0; j < 8; j++ {
			out[31-8*i-j] = byte(v >> (8 * j))
		}
	}
}

// limbsFromBytesBE loads up to 32 big-endian bytes into little-endian
// limbs (the value is NOT reduced mod anything).
func limbsFromBytesBE(b []byte, out *[4]uint64) {
	*out = [4]uint64{}
	for i := 0; i < len(b); i++ {
		v := uint64(b[len(b)-1-i])
		out[i/8] |= v << (8 * (i % 8))
	}
}

func limbsToBig(l *[4]uint64) *big.Int {
	var buf [32]byte
	limbsToBytesBE(l, &buf)
	return new(big.Int).SetBytes(buf[:])
}
