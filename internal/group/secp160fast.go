package group

import (
	"math/big"
	"math/bits"
)

// Dedicated secp160r1 arithmetic. The generic ECGroup keeps every field
// element in math/big form and pays a division on every reduction; at
// the 160-bit size that makes one scalar multiplication slower than a
// 1024-bit Montgomery modexp, inverting the paper's ECC-vs-DL
// comparison. This file implements the secp160r1 field
// p = 2^160 − 2^31 − 1 on three uint64 limbs with pseudo-Mersenne
// folding (2^160 ≡ 2^31 + 1 mod p), Jacobian point arithmetic with the
// a = −3 doubling, a width-4 wNAF variable-base scalar multiplication,
// and limb versions of Op, Decode and the on-curve check. ByName and
// Secp160r1 both return this group; the generic ECGroup stays as the
// test oracle, and the test suite checks every operation against it.

// fe160 is a field element in little-endian limbs, always fully reduced
// (< p). It is a struct rather than an array so the register ABI passes
// it in registers.
type fe160 struct{ l0, l1, l2 uint64 }

// The limbs of p = 2^160 − 2^31 − 1.
const (
	fe160P0     = 0xFFFFFFFF7FFFFFFF
	fe160P1     = 0xFFFFFFFFFFFFFFFF
	fe160P2     = 0x00000000FFFFFFFF
	fe160Mask32 = 0xFFFFFFFF
)

var (
	fe160P = fe160{fe160P0, fe160P1, fe160P2}
	// fe160B is the secp160r1 curve coefficient b.
	fe160B   = fe160{0x81D4D4ADC565FA45, 0x54BD7A8B65ACF89F, 0x000000001C97BEFC}
	fe160One = fe160{1, 0, 0}
)

// fe160FromBig converts x ∈ [0, 2^192) to limbs, whatever the width of
// big.Word on the platform.
func fe160FromBig(x *big.Int) fe160 {
	var l [3]uint64
	limbsFromBig(l[:], x)
	return fe160{l[0], l[1], l[2]}
}

// big returns f as a fresh big.Int.
func (f fe160) big() *big.Int { return bigFromLimbs([]uint64{f.l0, f.l1, f.l2}) }

func (f fe160) isZero() bool { return f.l0|f.l1|f.l2 == 0 }

// fe160Add returns a+b mod p. The sum is below 2p, so one subtraction
// of p, kept or discarded by a mask, reduces it.
func fe160Add(a, b fe160) fe160 {
	s0, c := bits.Add64(a.l0, b.l0, 0)
	s1, c := bits.Add64(a.l1, b.l1, c)
	s2 := a.l2 + b.l2 + c
	d0, bo := bits.Sub64(s0, fe160P0, 0)
	d1, bo := bits.Sub64(s1, fe160P1, bo)
	d2, bo := bits.Sub64(s2, fe160P2, bo)
	m := -bo // all ones when the sum was already below p
	return fe160{d0 ^ (d0^s0)&m, d1 ^ (d1^s1)&m, d2 ^ (d2^s2)&m}
}

// fe160Sub returns a−b mod p, adding p back under a mask on borrow.
func fe160Sub(a, b fe160) fe160 {
	d0, bo := bits.Sub64(a.l0, b.l0, 0)
	d1, bo := bits.Sub64(a.l1, b.l1, bo)
	d2, bo := bits.Sub64(a.l2, b.l2, bo)
	m := -bo
	d0, c := bits.Add64(d0, fe160P0&m, 0)
	d1, c = bits.Add64(d1, fe160P1&m, c)
	d2, _ = bits.Add64(d2, fe160P2&m, c)
	return fe160{d0, d1, d2}
}

// fe160Neg returns −a mod p.
func fe160Neg(a fe160) fe160 { return fe160Sub(fe160{}, a) }

// fe160Mul returns a·b mod p: a 3×3 schoolbook product into five limbs,
// then fe160Reduce.
func fe160Mul(a, b fe160) fe160 {
	// Row a0·b.
	h00, r0 := bits.Mul64(a.l0, b.l0)
	h01, l01 := bits.Mul64(a.l0, b.l1)
	h02, l02 := bits.Mul64(a.l0, b.l2)
	r1, c := bits.Add64(h00, l01, 0)
	r2, c := bits.Add64(h01, l02, c)
	r3 := h02 + c
	// Row a1·b, shifted one limb (a1·b < 2^224, so s4 < 2^32).
	h10, s1 := bits.Mul64(a.l1, b.l0)
	h11, l11 := bits.Mul64(a.l1, b.l1)
	h12, l12 := bits.Mul64(a.l1, b.l2)
	s2, c := bits.Add64(h10, l11, 0)
	s3, c := bits.Add64(h11, l12, c)
	s4 := h12 + c
	r1, c = bits.Add64(r1, s1, 0)
	r2, c = bits.Add64(r2, s2, c)
	r3, c = bits.Add64(r3, s3, c)
	r4 := s4 + c
	// Row a2·b, shifted two limbs (a2 < 2^32, so a2·b < 2^192).
	h20, u2 := bits.Mul64(a.l2, b.l0)
	h21, l21 := bits.Mul64(a.l2, b.l1)
	u3, c := bits.Add64(h20, l21, 0)
	u4 := h21 + a.l2*b.l2 + c
	r2, c = bits.Add64(r2, u2, 0)
	r3, c = bits.Add64(r3, u3, c)
	r4 += u4 + c
	return fe160Reduce(r0, r1, r2, r3, r4)
}

// fe160Sqr returns a² mod p with the three cross products computed once
// and doubled.
func fe160Sqr(a fe160) fe160 {
	h01, c1 := bits.Mul64(a.l0, a.l1)
	h02, l02 := bits.Mul64(a.l0, a.l2)
	h12, l12 := bits.Mul64(a.l1, a.l2)
	c2, c := bits.Add64(h01, l02, 0)
	c3, c := bits.Add64(h02, l12, c)
	c4 := h12 + c
	// Double the cross sum (it is below a²/2 < 2^319).
	d4 := c4<<1 | c3>>63
	d3 := c3<<1 | c2>>63
	d2 := c2<<1 | c1>>63
	d1 := c1 << 1
	h00, r0 := bits.Mul64(a.l0, a.l0)
	h11, l11 := bits.Mul64(a.l1, a.l1)
	r1, c := bits.Add64(h00, d1, 0)
	r2, c := bits.Add64(l11, d2, c)
	r3, c := bits.Add64(h11, d3, c)
	r4 := a.l2*a.l2 + d4 + c
	return fe160Reduce(r0, r1, r2, r3, r4)
}

// fe160Reduce reduces a 320-bit value r (little-endian limbs) mod p.
// Writing r = lo + 2^160·hi, it folds hi·(2^160 mod p) = hi + hi·2^31
// into lo by shifts and adds, folds the at most 32 bits that overflow
// 2^160 once more, and subtracts p if the result still reaches it.
func fe160Reduce(r0, r1, r2, r3, r4 uint64) fe160 {
	h0 := r2>>32 | r3<<32
	h1 := r3>>32 | r4<<32
	h2 := r4 >> 32
	// lo + hi + hi·2^31 < 2^160 + 2^160 + 2^191 fits three limbs.
	x0, c := bits.Add64(r0, h0, 0)
	x1, c := bits.Add64(r1, h1, c)
	x2 := r2&fe160Mask32 + h2 + c
	x0, c = bits.Add64(x0, h0<<31, 0)
	x1, c = bits.Add64(x1, h1<<31|h0>>33, c)
	x2 += h2<<31 | h1>>33 + c
	// Second fold: k < 2^32, so k·(2^31+1) < 2^64.
	k := x2 >> 32
	x0, c = bits.Add64(x0, k<<31+k, 0)
	x1, c = bits.Add64(x1, 0, c)
	x2 = x2&fe160Mask32 + c
	if x2>>32 != 0 {
		// The carry rippled to 2^160: the value is now 2^160 + x0 with
		// x0 < 2^64 − 2^32, and one more fold cannot overflow.
		return fe160{x0 + 1<<31 + 1, 0, 0}
	}
	if x2 == fe160P2 && x1 == fe160P1 && x0 >= fe160P0 {
		return fe160{x0 - fe160P0, 0, 0}
	}
	return fe160{x0, x1, x2}
}

// fe160SqrN squares a n times.
func fe160SqrN(a fe160, n int) fe160 {
	for i := 0; i < n; i++ {
		a = fe160Sqr(a)
	}
	return a
}

// fe160Pow2k1 returns a^(2^128 − 1) and a^(2^29 − 1), the two runs of
// ones the inversion and square-root exponents are built from.
func fe160Pow2k1(a fe160) (x128, x29 fe160) {
	// xk = a^(2^k − 1); x(j+k) = xj^(2^k)·xk.
	x2 := fe160Mul(fe160Sqr(a), a)
	x4 := fe160Mul(fe160SqrN(x2, 2), x2)
	x8 := fe160Mul(fe160SqrN(x4, 4), x4)
	x16 := fe160Mul(fe160SqrN(x8, 8), x8)
	x24 := fe160Mul(fe160SqrN(x16, 8), x8)
	x28 := fe160Mul(fe160SqrN(x24, 4), x4)
	x29 = fe160Mul(fe160Sqr(x28), a)
	x32 := fe160Mul(fe160SqrN(x16, 16), x16)
	x64 := fe160Mul(fe160SqrN(x32, 32), x32)
	x128 = fe160Mul(fe160SqrN(x64, 64), x64)
	return x128, x29
}

// fe160Inv returns a^(p−2) = a⁻¹ (0 for a = 0) by a fixed addition
// chain. In binary p−2 is 128 ones, a zero, 29 ones, a zero and a one:
// 172 squarings and 12 multiplications, no big.Int.
func fe160Inv(a fe160) fe160 {
	x128, x29 := fe160Pow2k1(a)
	r := fe160Mul(fe160SqrN(x128, 30), x29)
	return fe160Mul(fe160SqrN(r, 2), a)
}

// fe160Sqrt returns a^((p+1)/4), a square root of a whenever one exists
// (p ≡ 3 mod 4); callers check the result by squaring it. In binary
// (p+1)/4 is 129 ones followed by 29 zeros.
func fe160Sqrt(a fe160) fe160 {
	x128, _ := fe160Pow2k1(a)
	x129 := fe160Mul(fe160Sqr(x128), a)
	return fe160SqrN(x129, 29)
}

// fe160CurveRHS returns x³ − 3x + b.
func fe160CurveRHS(x fe160) fe160 {
	x3 := fe160Mul(fe160Sqr(x), x)
	tx := fe160Add(fe160Add(x, x), x)
	return fe160Add(fe160Sub(x3, tx), fe160B)
}

// jac160 is a Jacobian point (X/Z², Y/Z³); z = 0 encodes infinity.
type jac160 struct {
	x, y, z fe160
}

func jac160FromAffine(pt ecPoint) jac160 {
	return jac160{x: fe160FromBig(pt.x), y: fe160FromBig(pt.y), z: fe160One}
}

// affine projects p back to an affine point with one inversion.
func (p jac160) affine() ecPoint {
	if p.z.isZero() {
		return ecPoint{inf: true}
	}
	zInv := fe160Inv(p.z)
	zInv2 := fe160Sqr(zInv)
	x := fe160Mul(p.x, zInv2)
	y := fe160Mul(p.y, fe160Mul(zInv2, zInv))
	return ecPoint{x: x.big(), y: y.big()}
}

func neg160(p jac160) jac160 {
	p.y = fe160Neg(p.y)
	return p
}

// double160 doubles with the a = −3 formula (3M + 5S):
// δ = Z², γ = Y², β = Xγ, α = 3(X−δ)(X+δ),
// X' = α² − 8β, Z' = (Y+Z)² − γ − δ, Y' = α(4β − X') − 8γ².
func double160(p jac160) jac160 {
	if p.z.isZero() || p.y.isZero() {
		return jac160{}
	}
	delta := fe160Sqr(p.z)
	gamma := fe160Sqr(p.y)
	beta := fe160Mul(p.x, gamma)
	alpha := fe160Mul(fe160Sub(p.x, delta), fe160Add(p.x, delta))
	alpha = fe160Add(fe160Add(alpha, alpha), alpha)
	beta2 := fe160Add(beta, beta)
	beta4 := fe160Add(beta2, beta2)
	var r jac160
	r.x = fe160Sub(fe160Sqr(alpha), fe160Add(beta4, beta4))
	r.z = fe160Sub(fe160Sub(fe160Sqr(fe160Add(p.y, p.z)), gamma), delta)
	g2 := fe160Sqr(gamma)
	g2 = fe160Add(g2, g2)
	g2 = fe160Add(g2, g2)
	g2 = fe160Add(g2, g2) // 8γ²
	r.y = fe160Sub(fe160Mul(alpha, fe160Sub(beta4, r.x)), g2)
	return r
}

// add160 adds two Jacobian points (11M + 5S):
// U1 = X1·Z2², U2 = X2·Z1², S1 = Y1·Z2³, S2 = Y2·Z1³, H = U2 − U1,
// I = (2H)², J = H·I, r = 2(S2 − S1), V = U1·I,
// X3 = r² − J − 2V, Y3 = r(V − X3) − 2·S1·J, Z3 = ((Z1+Z2)² − Z1² − Z2²)·H.
func add160(p, q jac160) jac160 {
	if p.z.isZero() {
		return q
	}
	if q.z.isZero() {
		return p
	}
	z1z1 := fe160Sqr(p.z)
	z2z2 := fe160Sqr(q.z)
	u1 := fe160Mul(p.x, z2z2)
	u2 := fe160Mul(q.x, z1z1)
	s1 := fe160Mul(fe160Mul(p.y, q.z), z2z2)
	s2 := fe160Mul(fe160Mul(q.y, p.z), z1z1)
	h := fe160Sub(u2, u1)
	r := fe160Sub(s2, s1)
	if h.isZero() {
		if r.isZero() {
			return double160(p)
		}
		return jac160{}
	}
	r = fe160Add(r, r)
	i := fe160Add(h, h)
	i = fe160Sqr(i)
	j := fe160Mul(h, i)
	v := fe160Mul(u1, i)
	var out jac160
	out.x = fe160Sub(fe160Sub(fe160Sqr(r), j), fe160Add(v, v))
	s1j := fe160Mul(s1, j)
	out.y = fe160Sub(fe160Mul(r, fe160Sub(v, out.x)), fe160Add(s1j, s1j))
	zz := fe160Sub(fe160Sub(fe160Sqr(fe160Add(p.z, q.z)), z1z1), z2z2)
	out.z = fe160Mul(zz, h)
	return out
}

// aff160 is an affine point with limb coordinates, never infinity.
type aff160 struct {
	x, y fe160
}

// madd160 adds an affine point to a Jacobian one (7M + 4S):
// U2 = X2·Z1², S2 = Y2·Z1³, H = U2 − X1, I = 4H², J = H·I,
// r = 2(S2 − Y1), V = X1·I, X3 = r² − J − 2V,
// Y3 = r(V − X3) − 2·Y1·J, Z3 = (Z1 + H)² − Z1² − H².
func madd160(p jac160, q aff160) jac160 {
	if p.z.isZero() {
		return jac160{x: q.x, y: q.y, z: fe160One}
	}
	z1z1 := fe160Sqr(p.z)
	u2 := fe160Mul(q.x, z1z1)
	s2 := fe160Mul(fe160Mul(q.y, p.z), z1z1)
	h := fe160Sub(u2, p.x)
	r := fe160Sub(s2, p.y)
	if h.isZero() {
		if r.isZero() {
			return double160(p)
		}
		return jac160{}
	}
	r = fe160Add(r, r)
	hh := fe160Sqr(h)
	i := fe160Add(hh, hh)
	i = fe160Add(i, i)
	j := fe160Mul(h, i)
	v := fe160Mul(p.x, i)
	var out jac160
	out.x = fe160Sub(fe160Sub(fe160Sqr(r), j), fe160Add(v, v))
	yj := fe160Mul(p.y, j)
	out.y = fe160Sub(fe160Mul(r, fe160Sub(v, out.x)), fe160Add(yj, yj))
	out.z = fe160Sub(fe160Sub(fe160Sqr(fe160Add(p.z, h)), z1z1), hh)
	return out
}

// normalize160 converts Jacobian points, none of them infinity, to
// affine with one shared inversion (Montgomery's trick).
func normalize160(pts []jac160) []aff160 {
	out := make([]aff160, len(pts))
	if len(pts) == 0 {
		return out
	}
	// prefix[i] = z0·z1·…·zi
	prefix := make([]fe160, len(pts))
	prefix[0] = pts[0].z
	for i := 1; i < len(pts); i++ {
		prefix[i] = fe160Mul(prefix[i-1], pts[i].z)
	}
	inv := fe160Inv(prefix[len(pts)-1])
	for i := len(pts) - 1; i >= 0; i-- {
		zInv := inv
		if i > 0 {
			zInv = fe160Mul(inv, prefix[i-1])
			inv = fe160Mul(inv, pts[i].z)
		}
		zInv2 := fe160Sqr(zInv)
		out[i] = aff160{x: fe160Mul(pts[i].x, zInv2), y: fe160Mul(pts[i].y, fe160Mul(zInv2, zInv))}
	}
	return out
}

// fastSecp160 is secp160r1 on the limb field. It embeds the generic
// group for the curve constants and the operations that do no field
// arithmetic (encoding, equality, negation), and overrides the rest.
type fastSecp160 struct {
	*ECGroup
}

// expWindow is the wNAF width of the variable-base Exp. Digits are odd
// and below 2^(w−1) in magnitude, so the ladder keeps 2^(w−2) odd
// multiples of the base. They stay Jacobian: normalising them for mixed
// additions costs one inversion, about what the ~32 additions of a
// 160-bit scalar would save. Width 5 measured no faster than 4.
const expWindow = 4

// Exp implements Group: the cached comb for the generator, a width-4
// wNAF ladder over the odd multiples P, 3P, 5P, 7P otherwise.
func (f fastSecp160) Exp(a Element, k *big.Int) Element {
	pt := f.unwrap(a)
	if !pt.inf && pt.x.Cmp(f.gx) == 0 && pt.y.Cmp(f.gy) == 0 {
		// Fixed-base fast path: the cached comb lives in the limb
		// field, keyed separately from the generic group's table.
		return generatorTable(f).Exp(k)
	}
	e := new(big.Int).Mod(k, f.n)
	if pt.inf || e.Sign() == 0 {
		return ecPoint{inf: true}
	}
	var pre [1 << (expWindow - 2)]jac160
	pre[0] = jac160FromAffine(pt)
	dbl := double160(pre[0])
	for i := 1; i < len(pre); i++ {
		pre[i] = add160(pre[i-1], dbl)
	}
	digits := wnafDigits(e, expWindow)
	// The top digit is positive: start from it instead of doubling the
	// point at infinity.
	top := len(digits) - 1
	acc := pre[digits[top]>>1]
	for i := top - 1; i >= 0; i-- {
		acc = double160(acc)
		switch d := digits[i]; {
		case d > 0:
			acc = add160(acc, pre[d>>1])
		case d < 0:
			acc = add160(acc, neg160(pre[(-d)>>1]))
		}
	}
	return acc.affine()
}

// Op implements Group with the affine chord-and-tangent formulas: one
// field inversion, where the generic path pays a math/big ModInverse.
func (f fastSecp160) Op(a, b Element) Element {
	pa, pb := f.unwrap(a), f.unwrap(b)
	if pa.inf {
		return copyPoint(pb)
	}
	if pb.inf {
		return copyPoint(pa)
	}
	x1, y1 := fe160FromBig(pa.x), fe160FromBig(pa.y)
	x2, y2 := fe160FromBig(pb.x), fe160FromBig(pb.y)
	var lambda fe160
	if x1 == x2 {
		if y1 != y2 || y1.isZero() {
			return ecPoint{inf: true} // P + (−P)
		}
		// Tangent: λ = (3x² − 3) / 2y.
		num := fe160Sub(fe160Sqr(x1), fe160One)
		num = fe160Add(fe160Add(num, num), num)
		lambda = fe160Mul(num, fe160Inv(fe160Add(y1, y1)))
	} else {
		lambda = fe160Mul(fe160Sub(y2, y1), fe160Inv(fe160Sub(x2, x1)))
	}
	x3 := fe160Sub(fe160Sub(fe160Sqr(lambda), x1), x2)
	y3 := fe160Sub(fe160Mul(lambda, fe160Sub(x1, x3)), y1)
	return ecPoint{x: x3.big(), y: y3.big()}
}

// copyPoint returns pt with coordinates of its own, so Op's result
// never aliases an input.
func copyPoint(pt ecPoint) ecPoint {
	if pt.inf {
		return pt
	}
	return ecPoint{x: new(big.Int).Set(pt.x), y: new(big.Int).Set(pt.y)}
}

// Decode implements Group: the generic parsing and error classes, with
// the square root taken as (x³ − 3x + b)^((p+1)/4) on limbs.
func (f fastSecp160) Decode(data []byte) (Element, error) {
	return f.decode(data, liftX160)
}

// liftX160 returns the y of the requested parity with (x, y) on the
// curve, or false when x has no such point.
func liftX160(x *big.Int, odd bool) (*big.Int, bool) {
	rhs := fe160CurveRHS(fe160FromBig(x))
	y := fe160Sqrt(rhs)
	if fe160Sqr(y) != rhs {
		return nil, false
	}
	if (y.l0&1 == 1) != odd {
		if y.isZero() {
			return nil, false
		}
		y = fe160Neg(y)
	}
	return y.big(), true
}

// validateElement is the generic membership check with the curve
// equation evaluated on limbs.
func (f fastSecp160) validateElement(e Element) error {
	return f.validatePoint(e, onCurve160)
}

// onCurve160 reports whether y² = x³ − 3x + b for coordinates already
// known to lie in [0, p).
func onCurve160(x, y *big.Int) bool {
	return fe160Sqr(fe160FromBig(y)) == fe160CurveRHS(fe160FromBig(x))
}
