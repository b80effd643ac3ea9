package group

import (
	"bytes"
	"math/big"
	"testing"
	"testing/quick"

	"groupranking/internal/fixedbig"
)

func TestFe160RoundTrip(t *testing.T) {
	p := fe160P.big()
	want, _ := new(big.Int).SetString("FFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFF7FFFFFFF", 16)
	if p.Cmp(want) != 0 {
		t.Fatalf("fe160P constant wrong: %x", p)
	}
	rng := fixedbig.NewDRBG("fe160-rt")
	for i := 0; i < 50; i++ {
		v, err := fixedbig.RandInt(rng, p)
		if err != nil {
			t.Fatal(err)
		}
		if got := fe160FromBig(v).big(); got.Cmp(v) != 0 {
			t.Fatalf("round trip: got %x, want %x", got, v)
		}
	}
}

// fe160Boundary are inputs below 2^160 where carries and folds are
// most likely to go wrong: 0, 1, p−1, p, 2^160−1, limb-boundary runs
// of ones and values just above and below 2^64 and 2^128.
func fe160Boundary() []*big.Int {
	p := fe160P.big()
	one := big.NewInt(1)
	pow := func(k uint) *big.Int { return new(big.Int).Lsh(one, k) }
	out := []*big.Int{
		big.NewInt(0), one, big.NewInt(2), big.NewInt(3),
		new(big.Int).Sub(p, one), new(big.Int).Sub(p, big.NewInt(2)), p,
		new(big.Int).Sub(pow(160), one), new(big.Int).Rsh(p, 1),
		pow(31), new(big.Int).Add(pow(31), one),
	}
	for _, k := range []uint{32, 63, 64, 65, 96, 127, 128, 129, 159} {
		out = append(out, new(big.Int).Sub(pow(k), one), pow(k), new(big.Int).Add(pow(k), one))
	}
	// Runs of ones in one limb only.
	out = append(out,
		new(big.Int).Lsh(new(big.Int).Sub(pow(64), one), 64),
		new(big.Int).Lsh(new(big.Int).Sub(pow(32), one), 128),
		new(big.Int).Sub(p, pow(64)))
	return out
}

// checkFe160 compares every limb operation on (a, b) against math/big.
// Mul and Sqr accept any input below 2^160; Add, Sub, Inv and Sqrt
// require reduced inputs, as the limb code never holds anything else.
func checkFe160(t *testing.T, a, b *big.Int) {
	t.Helper()
	p := fe160P.big()
	fa, fb := fe160FromBig(a), fe160FromBig(b)
	mod := func(x *big.Int) *big.Int { return x.Mod(x, p) }
	check := func(op string, got fe160, want *big.Int) {
		t.Helper()
		if g := got.big(); g.Cmp(want) != 0 {
			t.Fatalf("%s(%x, %x): got %x want %x", op, a, b, g, want)
		}
	}
	check("mul", fe160Mul(fa, fb), mod(new(big.Int).Mul(a, b)))
	check("sqr", fe160Sqr(fa), mod(new(big.Int).Mul(a, a)))
	if a.Cmp(p) >= 0 || b.Cmp(p) >= 0 {
		return
	}
	check("add", fe160Add(fa, fb), mod(new(big.Int).Add(a, b)))
	check("sub", fe160Sub(fa, fb), mod(new(big.Int).Sub(a, b)))
	check("neg", fe160Neg(fa), mod(new(big.Int).Neg(a)))
	wantInv := new(big.Int)
	if a.Sign() != 0 {
		wantInv.ModInverse(a, p)
	}
	check("inv", fe160Inv(fa), wantInv)
	root := fe160Sqrt(fa).big()
	if new(big.Int).ModSqrt(a, p) == nil {
		if sq := mod(new(big.Int).Mul(root, root)); sq.Cmp(a) == 0 {
			t.Fatalf("sqrt(%x): non-residue squared back", a)
		}
	} else if sq := mod(new(big.Int).Mul(root, root)); sq.Cmp(a) != 0 {
		t.Fatalf("sqrt(%x): got %x, whose square is %x", a, root, sq)
	}
}

func TestFe160ArithmeticAgainstBig(t *testing.T) {
	p := fe160P.big()
	top := new(big.Int).Lsh(big.NewInt(1), 160)
	rng := fixedbig.NewDRBG("fe160-arith")
	for i := 0; i < 2000; i++ {
		bound := p
		if i%4 == 0 {
			bound = top // unreduced inputs for mul and sqr
		}
		a, _ := fixedbig.RandInt(rng, bound)
		b, _ := fixedbig.RandInt(rng, bound)
		checkFe160(t, a, b)
	}
}

func TestFe160EdgeValues(t *testing.T) {
	edges := fe160Boundary()
	for _, a := range edges {
		if got := fe160FromBig(a).big(); got.Cmp(a) != 0 {
			t.Fatalf("round trip %x: got %x", a, got)
		}
		for _, b := range edges {
			checkFe160(t, a, b)
		}
	}
}

func TestFe160Inv(t *testing.T) {
	p := fe160P.big()
	rng := fixedbig.NewDRBG("fe160-inv")
	for i := 0; i < 10; i++ {
		a, _ := fixedbig.RandNonZero(rng, p)
		inv := fe160Inv(fe160FromBig(a))
		want := new(big.Int).ModInverse(a, p)
		if inv.big().Cmp(want) != 0 {
			t.Fatalf("inv: got %x want %x", inv.big(), want)
		}
	}
}

// TestFastExpMatchesGeneric runs the wNAF ladder against the generic
// group on a seeded walk of (base, scalar) pairs and on the edge
// scalars: 0, ±1, n−1, n, n+1, negative and over-order values, and
// scalars whose top wNAF digit carries into a new position.
func TestFastExpMatchesGeneric(t *testing.T) {
	fast := Secp160r1()
	slow := Secp160r1Generic()
	rng := fixedbig.NewDRBG("fast-vs-generic")
	pairs := 1000
	if testing.Short() {
		pairs = 200
	}
	base := fast.Generator()
	for i := 0; i < pairs; i++ {
		k, err := fast.RandomScalar(rng)
		if err != nil {
			t.Fatal(err)
		}
		a := fast.Exp(base, k)
		b := slow.Exp(base, k)
		if !slow.Equal(a, b) {
			t.Fatalf("pair %d: fast and generic Exp disagree for k=%x", i, k)
		}
		base = a // walk through varied points
	}
	n := slow.Order()
	one := big.NewInt(1)
	pow := func(k uint) *big.Int { return new(big.Int).Lsh(one, k) }
	edges := []*big.Int{
		big.NewInt(0), one, big.NewInt(-1), big.NewInt(2), big.NewInt(7), big.NewInt(8),
		big.NewInt(-12345), new(big.Int).Sub(n, one), n, new(big.Int).Add(n, one),
		new(big.Int).Neg(n), new(big.Int).Lsh(n, 3),
	}
	// 2^k − 1 and 2^k − 9 end in a run of ones, so the wNAF's top digit
	// lands one position above the scalar's bit length.
	for _, k := range []uint{4, 5, 63, 64, 65, 128, 159, 160} {
		edges = append(edges, new(big.Int).Sub(pow(k), one), new(big.Int).Sub(pow(k), big.NewInt(9)))
	}
	for _, base := range []Element{base, fast.Exp(base, big.NewInt(3)), slow.Identity(), slow.Generator()} {
		for _, k := range edges {
			if a, b := fast.Exp(base, k), slow.Exp(base, k); !slow.Equal(a, b) {
				t.Fatalf("Exp(%x, %d) disagrees", slow.Encode(base), k)
			}
		}
	}
	// Small scalars and identities.
	f := func(k uint8) bool {
		a := fast.Exp(fast.Generator(), big.NewInt(int64(k)))
		b := slow.Exp(slow.Generator(), big.NewInt(int64(k)))
		return slow.Equal(a, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
	if !fast.IsIdentity(fast.Exp(fast.Generator(), big.NewInt(0))) {
		t.Error("k=0 must give the identity")
	}
	if !fast.IsIdentity(fast.Exp(fast.Identity(), big.NewInt(5))) {
		t.Error("identity base must stay identity")
	}
	// Order annihilates.
	if !fast.IsIdentity(fast.Exp(fast.Generator(), fast.Order())) {
		t.Error("n·G must be the identity")
	}
	// Negative exponents.
	neg := fast.Exp(fast.Generator(), big.NewInt(-3))
	pos := slow.Inv(slow.Exp(slow.Generator(), big.NewInt(3)))
	if !slow.Equal(neg, pos) {
		t.Error("negative exponent disagrees")
	}
}

func TestFe160CurveConstants(t *testing.T) {
	g := Secp160r1Generic()
	if fe160P.big().Cmp(g.p) != 0 {
		t.Fatalf("fe160P = %x, curve p = %x", fe160P.big(), g.p)
	}
	if fe160B.big().Cmp(g.b) != 0 {
		t.Fatalf("fe160B = %x, curve b = %x", fe160B.big(), g.b)
	}
	if a := new(big.Int).Sub(g.p, big.NewInt(3)); a.Cmp(g.a) != 0 {
		t.Fatalf("secp160r1 a is not −3")
	}
}

func TestFastOpMatchesGeneric(t *testing.T) {
	fast, slow := Secp160r1(), Secp160r1Generic()
	rng := fixedbig.NewDRBG("fast-op")
	var pts []Element
	for i := 0; i < 20; i++ {
		pts = append(pts, slow.Exp(slow.Generator(), mustScalar(t, slow, rng)))
	}
	check := func(what string, a, b Element) {
		t.Helper()
		if got, want := fast.Op(a, b), slow.Op(a, b); !slow.Equal(got, want) {
			t.Fatalf("Op %s disagrees", what)
		}
	}
	id := slow.Identity()
	check("O+O", id, id)
	for i, p := range pts {
		check("P+O", p, id)
		check("O+P", id, p)
		check("P+P", p, p)
		check("P+(−P)", p, slow.Inv(p))
		check("P+Q", p, pts[(i+1)%len(pts)])
		if !fast.IsIdentity(fast.Op(p, fast.Inv(p))) {
			t.Fatal("P+(−P) is not the identity")
		}
	}
	// Op must not alias its inputs' coordinates.
	p := pts[0]
	sum := fast.Op(p, id).(ecPoint)
	if sum.x == p.(ecPoint).x || sum.y == p.(ecPoint).y {
		t.Fatal("Op(P, O) shares P's coordinates")
	}
}

// TestFastDecodeValidateMatchGeneric checks that the limb Decode and
// Validate accept and reject exactly what the generic code does, with
// the same error text.
func TestFastDecodeValidateMatchGeneric(t *testing.T) {
	fast, slow := Secp160r1(), Secp160r1Generic()
	rng := fixedbig.NewDRBG("fast-decode")
	sameErr := func(what string, a, b error) {
		t.Helper()
		if (a == nil) != (b == nil) || (a != nil && a.Error() != b.Error()) {
			t.Fatalf("%s: fast error %v, generic error %v", what, a, b)
		}
	}
	var inputs [][]byte
	for i := 0; i < 50; i++ {
		enc := slow.Encode(slow.Exp(slow.Generator(), mustScalar(t, slow, rng)))
		flipped := append([]byte(nil), enc...)
		flipped[0] ^= 1 // the other parity: the negated point
		offX := append([]byte(nil), enc...)
		offX[len(offX)-1] ^= 0x5A // about half of these X are off the curve
		inputs = append(inputs, enc, flipped, offX)
	}
	pBytes := slow.p.FillBytes(make([]byte, 20))
	allFF := bytes.Repeat([]byte{0xFF}, 20)
	inputs = append(inputs,
		make([]byte, slow.ElementLen()),           // infinity
		append([]byte{0x00}, allFF...),            // malformed infinity
		append([]byte{0x02}, pBytes...),           // X = p
		append([]byte{0x03}, allFF...),            // X = 2^160 − 1 ≥ p
		append([]byte{0x04}, pBytes...),           // bad tag
		append([]byte{0x02}, make([]byte, 20)...), // X = 0
		[]byte{0x02, 0x01},                        // short
	)
	for i, in := range inputs {
		a, errA := fast.Decode(in)
		b, errB := slow.Decode(in)
		sameErr("Decode", errA, errB)
		if errA == nil && !slow.Equal(a, b) {
			t.Fatalf("input %d: Decode disagrees", i)
		}
	}

	// Validate on raw coordinates, as a hostile peer could send them.
	gen := slow.Generator().(ecPoint)
	coords := [][2]*big.Int{
		{gen.x, gen.y},
		{gen.x, new(big.Int).Add(gen.y, big.NewInt(1))},
		{new(big.Int).Add(gen.x, slow.p), gen.y},
		{gen.x, new(big.Int).Add(gen.y, slow.p)},
		{big.NewInt(-1), gen.y},
		{big.NewInt(0), big.NewInt(0)},
	}
	for _, c := range coords {
		e, err := UnsafeElementFromCoords(fast, c[0], c[1])
		if err != nil {
			t.Fatal(err)
		}
		sameErr("Validate", Validate(fast, e), Validate(slow, e))
	}
	sameErr("Validate(identity)", Validate(fast, fast.Identity()), Validate(slow, slow.Identity()))
	sameErr("Validate(nil coords)", Validate(fast, ecPoint{}), Validate(slow, ecPoint{}))
}

var (
	benchElem Element
	benchFe   fe160
)

// benchPoints returns a base point other than the generator, a scalar,
// and that point's compressed encoding.
func benchPoints(b *testing.B) (Element, *big.Int, []byte) {
	g := Secp160r1Generic()
	rng := fixedbig.NewDRBG("bench-160")
	k1, _ := g.RandomScalar(rng)
	k2, _ := g.RandomScalar(rng)
	p := g.Exp(g.Generator(), k1)
	return p, k2, g.Encode(p)
}

func benchExpFixed(b *testing.B, g Group) {
	_, k, _ := benchPoints(b)
	g.Exp(g.Generator(), k) // build the comb outside the timing
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchElem = g.Exp(g.Generator(), k)
	}
}

func benchExpVar(b *testing.B, g Group) {
	p, k, _ := benchPoints(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchElem = g.Exp(p, k)
	}
}

func benchOp(b *testing.B, g Group) {
	p, _, _ := benchPoints(b)
	q := g.Op(p, g.Generator())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchElem = g.Op(p, q)
	}
}

func benchDecode(b *testing.B, g Group) {
	_, _, enc := benchPoints(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchElem, _ = g.Decode(enc)
	}
}

// Fixed-base Exp: the generator's cached comb.
func BenchmarkExpFixedFast160(b *testing.B)    { benchExpFixed(b, Secp160r1()) }
func BenchmarkExpFixedGeneric160(b *testing.B) { benchExpFixed(b, Secp160r1Generic()) }

// Variable-base Exp: the wNAF ladder on a point other than the generator.
func BenchmarkExpVarFast160(b *testing.B)    { benchExpVar(b, Secp160r1()) }
func BenchmarkExpVarGeneric160(b *testing.B) { benchExpVar(b, Secp160r1Generic()) }

func BenchmarkOpFast160(b *testing.B)        { benchOp(b, Secp160r1()) }
func BenchmarkOpGeneric160(b *testing.B)     { benchOp(b, Secp160r1Generic()) }
func BenchmarkDecodeFast160(b *testing.B)    { benchDecode(b, Secp160r1()) }
func BenchmarkDecodeGeneric160(b *testing.B) { benchDecode(b, Secp160r1Generic()) }

func benchFe160Operand() fe160 {
	return fe160FromBig(new(big.Int).Rsh(fe160P.big(), 3))
}

func BenchmarkFe160Mul(b *testing.B) {
	x := benchFe160Operand()
	y := x
	for i := 0; i < b.N; i++ {
		y = fe160Mul(y, x)
	}
	benchFe = y
}

func BenchmarkFe160Sqr(b *testing.B) {
	x := benchFe160Operand()
	for i := 0; i < b.N; i++ {
		x = fe160Sqr(x)
	}
	benchFe = x
}

func BenchmarkFe160Inv(b *testing.B) {
	x := benchFe160Operand()
	for i := 0; i < b.N; i++ {
		x = fe160Inv(x)
	}
	benchFe = x
}
