package group

import (
	"math/big"
	"math/bits"
)

// Limb arithmetic for the DL groups. Two pieces live here:
//
//   - dlField, Montgomery arithmetic modulo an odd p < 2^256 on four
//     uint64 limbs. DLGroup runs its variable-base Exp, its generator and
//     joint-key combs and Op through it when the modulus fits (toy-dl-256
//     and small generated groups). math/big's own Montgomery
//     exponentiation is assembly and already word-optimal at the MODP
//     sizes, where a width-generic Go loop measured about twice as slow
//     (1.97 ms against 1.06 ms at 1024 bits), so the MODP groups keep
//     math/big for Exp and Op.
//   - jacobiLimbs, a binary Jacobi symbol over 64-bit limbs: the
//     quadratic-residue membership check of every DL group, MODP
//     included, where it beats big.Jacobi at every size.
//
// Elements stay canonical *big.Int residues; the limbs exist only
// inside one operation, so encodings, equality and wire forms are
// untouched. The tests check every operation against math/big.

// fe256 is a residue mod p in little-endian limbs, fully reduced (< p):
// plain at the DLGroup boundary, in Montgomery form x·2^256 mod p
// inside dlField's products.
type fe256 [4]uint64

// dlField is the Montgomery field for one modulus.
type dlField struct {
	p  fe256
	n0 uint64 // −p⁻¹ mod 2^64
	r2 fe256  // 2^512 mod p: mul by it enters Montgomery form
}

// newDLField returns the limb field for p, or nil when p is even or
// wider than 256 bits.
func newDLField(p *big.Int) *dlField {
	if p.Sign() <= 0 || p.Bit(0) == 0 || p.BitLen() > 256 {
		return nil
	}
	f := &dlField{}
	limbsFromBig(f.p[:], p)
	// Newton's iteration doubles the correct low bits of p⁻¹ mod 2^64
	// each step; p·p ≡ 1 mod 8 seeds it with three.
	inv := f.p[0]
	for i := 0; i < 5; i++ {
		inv *= 2 - f.p[0]*inv
	}
	f.n0 = -inv
	r2 := new(big.Int).Lsh(big.NewInt(1), 512)
	limbsFromBig(f.r2[:], r2.Mod(r2, p))
	return f
}

// mul sets z = x·y·2^−256 mod p by separated operand scanning: the full
// product, then a Montgomery reduction. Row-wise products with two
// add-with-carry chains keep the limb products independent of each
// other; on amd64 this measured faster than both the interleaved (CIOS)
// form and a dedicated squaring, so squarings call mul too. With x, y < p
// the reduced value is below 2p and one conditional subtraction
// finishes. z may alias x or y.
func (f *dlField) mul(z, x, y *fe256) {
	p0, p1, p2, p3, n0 := f.p[0], f.p[1], f.p[2], f.p[3], f.n0
	x0, x1, x2, x3 := x[0], x[1], x[2], x[3]
	var r0, r1, r2, r3, r4, r5, r6, r7, c, c1, m, h0, h1, h2, h3, l0, l1, l2, l3 uint64
	// The 512-bit product, one row of four independent limb products
	// per limb of y, each row added in two carry chains (low halves,
	// then high halves one limb up).
	h0, l0 = bits.Mul64(x0, y[0])
	h1, l1 = bits.Mul64(x1, y[0])
	h2, l2 = bits.Mul64(x2, y[0])
	h3, l3 = bits.Mul64(x3, y[0])
	r0 = l0
	r1, c = bits.Add64(l1, h0, 0)
	r2, c = bits.Add64(l2, h1, c)
	r3, c = bits.Add64(l3, h2, c)
	r4 = h3 + c
	h0, l0 = bits.Mul64(x0, y[1])
	h1, l1 = bits.Mul64(x1, y[1])
	h2, l2 = bits.Mul64(x2, y[1])
	h3, l3 = bits.Mul64(x3, y[1])
	r1, c = bits.Add64(r1, l0, 0)
	r2, c = bits.Add64(r2, l1, c)
	r3, c = bits.Add64(r3, l2, c)
	r4, c = bits.Add64(r4, l3, c)
	r5 = c
	r2, c = bits.Add64(r2, h0, 0)
	r3, c = bits.Add64(r3, h1, c)
	r4, c = bits.Add64(r4, h2, c)
	r5 += h3 + c
	h0, l0 = bits.Mul64(x0, y[2])
	h1, l1 = bits.Mul64(x1, y[2])
	h2, l2 = bits.Mul64(x2, y[2])
	h3, l3 = bits.Mul64(x3, y[2])
	r2, c = bits.Add64(r2, l0, 0)
	r3, c = bits.Add64(r3, l1, c)
	r4, c = bits.Add64(r4, l2, c)
	r5, c = bits.Add64(r5, l3, c)
	r6 = c
	r3, c = bits.Add64(r3, h0, 0)
	r4, c = bits.Add64(r4, h1, c)
	r5, c = bits.Add64(r5, h2, c)
	r6 += h3 + c
	h0, l0 = bits.Mul64(x0, y[3])
	h1, l1 = bits.Mul64(x1, y[3])
	h2, l2 = bits.Mul64(x2, y[3])
	h3, l3 = bits.Mul64(x3, y[3])
	r3, c = bits.Add64(r3, l0, 0)
	r4, c = bits.Add64(r4, l1, c)
	r5, c = bits.Add64(r5, l2, c)
	r6, c = bits.Add64(r6, l3, c)
	r7 = c
	r4, c = bits.Add64(r4, h0, 0)
	r5, c = bits.Add64(r5, h1, c)
	r6, c = bits.Add64(r6, h2, c)
	r7 += h3 + c
	// Montgomery reduction: four steps, each adding the multiple m·p
	// that clears the lowest remaining limb. The carry out of the top
	// limb a step touches is held in cy and added by the next step,
	// one limb higher, before anything reads that limb.
	var cy uint64
	m = r0 * n0
	h0, l0 = bits.Mul64(m, p0)
	h1, l1 = bits.Mul64(m, p1)
	h2, l2 = bits.Mul64(m, p2)
	h3, l3 = bits.Mul64(m, p3)
	_, c = bits.Add64(r0, l0, 0)
	r1, c = bits.Add64(r1, l1, c)
	r2, c = bits.Add64(r2, l2, c)
	r3, c = bits.Add64(r3, l3, c)
	r4, c1 = bits.Add64(r4, cy, c)
	r1, c = bits.Add64(r1, h0, 0)
	r2, c = bits.Add64(r2, h1, c)
	r3, c = bits.Add64(r3, h2, c)
	r4, c = bits.Add64(r4, h3, c)
	cy = c + c1
	m = r1 * n0
	h0, l0 = bits.Mul64(m, p0)
	h1, l1 = bits.Mul64(m, p1)
	h2, l2 = bits.Mul64(m, p2)
	h3, l3 = bits.Mul64(m, p3)
	_, c = bits.Add64(r1, l0, 0)
	r2, c = bits.Add64(r2, l1, c)
	r3, c = bits.Add64(r3, l2, c)
	r4, c = bits.Add64(r4, l3, c)
	r5, c1 = bits.Add64(r5, cy, c)
	r2, c = bits.Add64(r2, h0, 0)
	r3, c = bits.Add64(r3, h1, c)
	r4, c = bits.Add64(r4, h2, c)
	r5, c = bits.Add64(r5, h3, c)
	cy = c + c1
	m = r2 * n0
	h0, l0 = bits.Mul64(m, p0)
	h1, l1 = bits.Mul64(m, p1)
	h2, l2 = bits.Mul64(m, p2)
	h3, l3 = bits.Mul64(m, p3)
	_, c = bits.Add64(r2, l0, 0)
	r3, c = bits.Add64(r3, l1, c)
	r4, c = bits.Add64(r4, l2, c)
	r5, c = bits.Add64(r5, l3, c)
	r6, c1 = bits.Add64(r6, cy, c)
	r3, c = bits.Add64(r3, h0, 0)
	r4, c = bits.Add64(r4, h1, c)
	r5, c = bits.Add64(r5, h2, c)
	r6, c = bits.Add64(r6, h3, c)
	cy = c + c1
	m = r3 * n0
	h0, l0 = bits.Mul64(m, p0)
	h1, l1 = bits.Mul64(m, p1)
	h2, l2 = bits.Mul64(m, p2)
	h3, l3 = bits.Mul64(m, p3)
	_, c = bits.Add64(r3, l0, 0)
	r4, c = bits.Add64(r4, l1, c)
	r5, c = bits.Add64(r5, l2, c)
	r6, c = bits.Add64(r6, l3, c)
	r7, c1 = bits.Add64(r7, cy, c)
	r4, c = bits.Add64(r4, h0, 0)
	r5, c = bits.Add64(r5, h1, c)
	r6, c = bits.Add64(r6, h2, c)
	r7, c = bits.Add64(r7, h3, c)
	cy = c + c1
	f.finish(z, r4, r5, r6, r7, cy)
}

// finish stores t = t0..t3 + t4·2^256 < 2p into z, reduced below p by
// one subtraction kept or discarded under a mask.
func (f *dlField) finish(z *fe256, t0, t1, t2, t3, t4 uint64) {
	d0, b := bits.Sub64(t0, f.p[0], 0)
	d1, b := bits.Sub64(t1, f.p[1], b)
	d2, b := bits.Sub64(t2, f.p[2], b)
	d3, b := bits.Sub64(t3, f.p[3], b)
	_, b = bits.Sub64(t4, 0, b)
	keep := -b // all ones when t was already below p
	z[0] = d0 ^ (d0^t0)&keep
	z[1] = d1 ^ (d1^t1)&keep
	z[2] = d2 ^ (d2^t2)&keep
	z[3] = d3 ^ (d3^t3)&keep
}

// toMont sets z to x's Montgomery form x·2^256 mod p.
func (f *dlField) toMont(z, x *fe256) { f.mul(z, x, &f.r2) }

// fromMont returns the canonical residue of a Montgomery-form z.
func (f *dlField) fromMont(z *fe256) *big.Int {
	one := fe256{1}
	var r fe256
	f.mul(&r, z, &one)
	return bigFromLimbs(r[:])
}

// mulPlain returns x·y mod p for plain (not Montgomery) x and y: the
// first product leaves x·y·2^−256, and multiplying by 2^512 mod p
// restores the plain product.
func (f *dlField) mulPlain(x, y *fe256) *big.Int {
	var z fe256
	f.mul(&z, x, y)
	f.mul(&z, &z, &f.r2)
	return bigFromLimbs(z[:])
}

// dlExpWindow is the sliding-window width of the variable-base Exp:
// 2^(w−1) odd powers are precomputed, and a 255-bit exponent then costs
// about 255 squarings and 255/(w+1) multiplications. Widths 4, 5 and 6
// measured the same on toy-dl-256; 4 keeps the table smallest.
const dlExpWindow = 4

// exp returns x^e mod p for plain x and 0 ≤ e < 2^256 by left-to-right
// sliding windows over the odd powers x, x³, …, x^(2^w − 1).
func (f *dlField) exp(x fe256, e *big.Int) *big.Int {
	var el fe256
	limbsFromBig(el[:], e)
	n := e.BitLen()
	if n == 0 {
		return big.NewInt(1)
	}
	var odd [1 << (dlExpWindow - 1)]fe256
	f.toMont(&odd[0], &x)
	var x2 fe256
	f.mul(&x2, &odd[0], &odd[0])
	for i := 1; i < len(odd); i++ {
		f.mul(&odd[i], &odd[i-1], &x2)
	}
	bit := func(i int) uint64 { return el[i/64] >> (i % 64) & 1 }
	var acc fe256
	started := false
	for i := n - 1; i >= 0; {
		if bit(i) == 0 {
			f.mul(&acc, &acc, &acc) // acc is set: the top bit is 1
			i--
			continue
		}
		// The window [j, i] starts and ends on a set bit: its value
		// is odd, one of the precomputed powers.
		j := max(i-dlExpWindow+1, 0)
		for bit(j) == 0 {
			j++
		}
		var d uint64
		for b := i; b >= j; b-- {
			d = d<<1 | bit(b)
			if started {
				f.mul(&acc, &acc, &acc)
			}
		}
		if started {
			f.mul(&acc, &acc, &odd[d>>1])
		} else {
			acc, started = odd[d>>1], true
		}
		i = j - 1
	}
	return f.fromMont(&acc)
}

// limbsFromBig writes x's low len(dst)·64 bits to dst, little-endian,
// whatever the width of big.Word on the platform. x must be ≥ 0.
func limbsFromBig(dst []uint64, x *big.Int) {
	clear(dst)
	for i, w := range x.Bits() {
		bit := i * bits.UintSize
		if bit >= 64*len(dst) {
			break
		}
		dst[bit/64] |= uint64(w) << (bit % 64)
	}
}

// bigFromLimbs returns little-endian limbs as a fresh big.Int whose word
// slice is the only allocation besides the Int itself.
func bigFromLimbs(l []uint64) *big.Int {
	words := make([]big.Word, len(l)*64/bits.UintSize)
	for i := range words {
		bit := i * bits.UintSize
		words[i] = big.Word(l[bit/64] >> (bit % 64))
	}
	return new(big.Int).SetBits(words)
}

// jacobiLimbs returns the Jacobi symbol (a/n) for odd n > 0 and
// 0 ≤ a < n, given as little-endian limb slices of equal length. It is
// the binary algorithm: strip the factors of two from a, each flipping
// the sign when n ≡ ±3 mod 8; swap when a < n, flipping the sign when
// both are ≡ 3 mod 4 (quadratic reciprocity); subtract n from a. Once
// both fit in one limb it finishes on machine words. It overwrites a
// and n.
func jacobiLimbs(a, n []uint64) int {
	j := 1
	la, ln := trimLimbs(a, len(a)), trimLimbs(n, len(n))
	for la > 0 && (la > 1 || ln > 1) {
		if tz := trailingZeroBits(a[:la]); tz > 0 {
			shrLimbs(a[:la], tz)
			la = trimLimbs(a, la)
			if r := n[0] & 7; tz&1 == 1 && (r == 3 || r == 5) {
				j = -j
			}
		}
		if cmpLimbs(a[:la], n[:ln]) < 0 {
			a, n, la, ln = n, a, ln, la
			if a[0]&3 == 3 && n[0]&3 == 3 {
				j = -j
			}
		}
		subLimbs(a[:la], n[:ln])
		la = trimLimbs(a, la)
	}
	if la == 0 {
		if ln == 1 && n[0] == 1 {
			return j
		}
		return 0
	}
	return j * jacobi64(a[0], n[0])
}

// jacobi64 is jacobiLimbs on single words.
func jacobi64(a, n uint64) int {
	j := 1
	for a != 0 {
		tz := bits.TrailingZeros64(a)
		a >>= tz
		if r := n & 7; tz&1 == 1 && (r == 3 || r == 5) {
			j = -j
		}
		if a < n {
			a, n = n, a
			if a&3 == 3 && n&3 == 3 {
				j = -j
			}
		}
		a -= n
	}
	if n == 1 {
		return j
	}
	return 0
}

// trimLimbs returns the number of significant limbs in x[:l].
func trimLimbs(x []uint64, l int) int {
	for l > 0 && x[l-1] == 0 {
		l--
	}
	return l
}

// trailingZeroBits counts the trailing zero bits of a nonzero x.
func trailingZeroBits(x []uint64) uint {
	for i, w := range x {
		if w != 0 {
			return uint(i*64 + bits.TrailingZeros64(w))
		}
	}
	return 0
}

// shrLimbs shifts x right by s bits in place.
func shrLimbs(x []uint64, s uint) {
	q, r := int(s/64), s%64
	n := len(x) - q
	if r == 0 {
		copy(x, x[q:])
	} else {
		for i := 0; i < n-1; i++ {
			x[i] = x[i+q]>>r | x[i+q+1]<<(64-r)
		}
		x[n-1] = x[len(x)-1] >> r
	}
	clear(x[n:])
}

// cmpLimbs compares trimmed limb slices.
func cmpLimbs(x, y []uint64) int {
	if len(x) != len(y) {
		if len(x) < len(y) {
			return -1
		}
		return 1
	}
	for i := len(x) - 1; i >= 0; i-- {
		if x[i] != y[i] {
			if x[i] < y[i] {
				return -1
			}
			return 1
		}
	}
	return 0
}

// subLimbs sets x −= y for x ≥ y, len(x) ≥ len(y).
func subLimbs(x, y []uint64) {
	var b uint64
	for i := range y {
		x[i], b = bits.Sub64(x[i], y[i], b)
	}
	for i := len(y); b != 0 && i < len(x); i++ {
		x[i], b = bits.Sub64(x[i], 0, b)
	}
}
