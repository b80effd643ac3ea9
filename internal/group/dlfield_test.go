package group

import (
	"bytes"
	"fmt"
	"math/big"
	"testing"

	"groupranking/internal/fixedbig"
)

// The DL limb field and the limb Jacobi symbol are checked against
// math/big: bigDL is the same group with the limb field switched off,
// and refDecode/refValidate are the big.Jacobi membership checks the
// limb Jacobi replaced.

func mustToyDL(t testing.TB) *DLGroup {
	t.Helper()
	g, err := ToyDL256()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// bigDL returns d with every operation on the math/big path.
func bigDL(d *DLGroup) *DLGroup {
	o := *d
	o.field = nil
	return &o
}

func refDecode(d *DLGroup, data []byte) (Element, error) {
	if len(data) != d.elemLen {
		return nil, fmt.Errorf("group: %s element must be %d bytes, got %d", d.name, d.elemLen, len(data))
	}
	v := new(big.Int).SetBytes(data)
	if v.Sign() == 0 || v.Cmp(d.p) >= 0 {
		return nil, fmt.Errorf("group: %s element out of range", d.name)
	}
	if big.Jacobi(v, d.p) != 1 {
		return nil, fmt.Errorf("group: %s element is not in the quadratic-residue subgroup", d.name)
	}
	return dlElement{v: v}, nil
}

func refValidate(d *DLGroup, v *big.Int) error {
	if v == nil || v.Sign() <= 0 || v.Cmp(d.p) >= 0 {
		return fmt.Errorf("group: %s element out of range", d.name)
	}
	if big.Jacobi(v, d.p) != 1 {
		return fmt.Errorf("group: %s element is not in the quadratic-residue subgroup", d.name)
	}
	return nil
}

func sameErr(t *testing.T, what string, got, want error) {
	t.Helper()
	if (got == nil) != (want == nil) || (got != nil && got.Error() != want.Error()) {
		t.Fatalf("%s: limb error %v, math/big error %v", what, got, want)
	}
}

// TestToyDL256Prime re-runs the DRBG safe-prime search that produced
// the pinned toy-dl-256 modulus.
func TestToyDL256Prime(t *testing.T) {
	q, err := fixedbig.Prime(fixedbig.NewDRBG("groupranking-toy-dl-256"), 255)
	for err == nil {
		p := new(big.Int).Lsh(q, 1)
		p.Add(p, big.NewInt(1))
		if p.ProbablyPrime(32) {
			if p.Cmp(mustToyDL(t).Modulus()) != 0 {
				t.Fatalf("search gives %x, pinned modulus is %x", p, mustToyDL(t).Modulus())
			}
			return
		}
		q, err = fixedbig.Prime(fixedbig.NewDRBG(fmt.Sprintf("groupranking-toy-dl-256-%s", q)), 255)
	}
	t.Fatal(err)
}

// TestDLFieldSelection pins which groups run on the limb field, on
// every architecture: a 32-bit big.Word must not switch it off.
func TestDLFieldSelection(t *testing.T) {
	if mustToyDL(t).field == nil {
		t.Fatal("toy-dl-256 is not on the limb field")
	}
	for _, g := range []*DLGroup{MODP1024(), MODP2048(), MODP3072()} {
		if g.field != nil {
			t.Fatalf("%s has a limb field", g.Name())
		}
	}
	if newDLField(big.NewInt(1<<20)) != nil {
		t.Fatal("even modulus accepted")
	}
}

// fieldModuli are odd moduli exercising the carry paths: the toy prime
// (top bit set), the largest and a mid-sized prime below 2^256, and
// one- and two-limb moduli.
func fieldModuli(t *testing.T) []*big.Int {
	t.Helper()
	one := big.NewInt(1)
	p255 := new(big.Int).Sub(new(big.Int).Lsh(one, 255), big.NewInt(19))
	p256 := new(big.Int).Sub(new(big.Int).Lsh(one, 256), big.NewInt(189))
	p64 := new(big.Int).SetUint64(0xFFFFFFFFFFFFFFC5)
	p100 := new(big.Int).Sub(new(big.Int).Lsh(one, 100), big.NewInt(15))
	for _, p := range []*big.Int{p255, p256, p64, p100} {
		if !p.ProbablyPrime(16) {
			t.Fatalf("%x is not prime", p)
		}
	}
	return []*big.Int{mustToyDL(t).Modulus(), p255, p256, p64, p100}
}

// fieldEdges are operands near 0, near p and on limb boundaries.
func fieldEdges(p *big.Int) []*big.Int {
	one := big.NewInt(1)
	out := []*big.Int{
		big.NewInt(0), one, big.NewInt(2),
		new(big.Int).Sub(p, one), new(big.Int).Sub(p, big.NewInt(2)),
		new(big.Int).Rsh(p, 1),
	}
	for _, k := range []uint{63, 64, 65, 127, 128, 129, 191, 192, 193, 255} {
		pow := new(big.Int).Lsh(one, k)
		for _, v := range []*big.Int{new(big.Int).Sub(pow, one), pow, new(big.Int).Add(pow, one)} {
			out = append(out, v.Mod(v, p))
		}
	}
	return out
}

func TestDLFieldMulMatchesBig(t *testing.T) {
	for _, p := range fieldModuli(t) {
		f := newDLField(p)
		rng := fixedbig.NewDRBG(fmt.Sprintf("dl-field-%x", p))
		vals := fieldEdges(p)
		for i := 0; i < 40; i++ {
			v, err := fixedbig.RandNonZero(rng, p)
			if err != nil {
				t.Fatal(err)
			}
			vals = append(vals, v)
		}
		for _, a := range vals {
			for _, b := range vals {
				var x, y fe256
				limbsFromBig(x[:], a)
				limbsFromBig(y[:], b)
				want := new(big.Int).Mul(a, b)
				want.Mod(want, p)
				if got := f.mulPlain(&x, &y); got.Cmp(want) != 0 {
					t.Fatalf("p=%x: %x·%x = %x, want %x", p, a, b, got, want)
				}
				var m fe256
				f.toMont(&m, &x)
				if got := f.fromMont(&m); got.Cmp(a) != 0 {
					t.Fatalf("p=%x: Montgomery round trip of %x gives %x", p, a, got)
				}
			}
		}
	}
}

// TestDLExpMatchesBig runs the limb variable-base Exp against math/big
// on a seeded walk of (base, scalar) pairs and on the edge scalars 0,
// ±1, q−1, q, q+1, −q and 2^k − 1.
func TestDLExpMatchesBig(t *testing.T) {
	toy := mustToyDL(t)
	ref := bigDL(toy)
	rng := fixedbig.NewDRBG("dl-exp-vs-big")
	pairs := 1000
	if testing.Short() {
		pairs = 200
	}
	base := toy.Exp(toy.Generator(), mustScalar(t, toy, rng))
	for i := 0; i < pairs; i++ {
		k := mustScalar(t, toy, rng)
		a, b := toy.Exp(base, k), ref.Exp(base, k)
		if !toy.Equal(a, b) {
			t.Fatalf("pair %d: limb and math/big Exp disagree for k=%x", i, k)
		}
		base = a
	}
	q, one := toy.Order(), big.NewInt(1)
	edges := []*big.Int{
		big.NewInt(0), one, big.NewInt(-1), big.NewInt(2), big.NewInt(-12345),
		new(big.Int).Sub(q, one), q, new(big.Int).Add(q, one), new(big.Int).Neg(q),
		new(big.Int).Lsh(q, 3),
	}
	for _, k := range []uint{1, 4, 5, 63, 64, 65, 128, 254, 255, 256} {
		edges = append(edges, new(big.Int).Sub(new(big.Int).Lsh(one, k), one))
	}
	m1 := dlElement{v: new(big.Int).Sub(toy.p, one)} // p−1 has order 2: not in the subgroup, but Exp must still agree
	for _, b := range []Element{base, toy.Identity(), m1, dlElement{v: big.NewInt(3)}} {
		for _, k := range edges {
			if got, want := toy.Exp(b, k), ref.Exp(b, k); !toy.Equal(got, want) {
				t.Fatalf("Exp(%x, %d) disagrees", toy.unwrap(b), k)
			}
		}
	}
}

func TestDLOpMatchesBig(t *testing.T) {
	toy := mustToyDL(t)
	ref := bigDL(toy)
	rng := fixedbig.NewDRBG("dl-op-vs-big")
	var elems []Element
	for i := 0; i < 20; i++ {
		elems = append(elems, toy.Exp(toy.Generator(), mustScalar(t, toy, rng)))
	}
	id := toy.Identity()
	check := func(a, b Element) {
		t.Helper()
		if got, want := toy.Op(a, b), ref.Op(a, b); !toy.Equal(got, want) {
			t.Fatalf("Op(%x, %x) disagrees", toy.unwrap(a), toy.unwrap(b))
		}
	}
	check(id, id)
	for i, e := range elems {
		check(e, id)
		check(id, e)
		check(e, e)
		check(e, toy.Inv(e))
		check(e, elems[(i+1)%len(elems)])
		if !toy.IsIdentity(toy.Op(e, toy.Inv(e))) {
			t.Fatal("a·a⁻¹ is not the identity")
		}
	}
	// The result never aliases an input, even for the identity.
	e := elems[0]
	if r := toy.Op(e, id).(dlElement); r.v == toy.unwrap(e) {
		t.Fatal("Op(a, 1) shares a's residue")
	}
	// Out-of-range residues (an unvalidated element) take the math/big
	// path and reduce exactly as before.
	for _, bad := range []Element{dlElement{v: new(big.Int).Add(toy.p, big.NewInt(5))}, dlElement{v: big.NewInt(-7)}} {
		check(bad, e)
		check(e, bad)
	}
}

// TestDLCombMatchesBig checks the limb comb for the generator and for
// a non-generator base against the math/big comb and Exp.
func TestDLCombMatchesBig(t *testing.T) {
	toy := mustToyDL(t)
	ref := bigDL(toy)
	rng := fixedbig.NewDRBG("dl-comb-vs-big")
	base := toy.Exp(toy.Generator(), mustScalar(t, toy, rng))
	q := toy.Order()
	scalars := []*big.Int{
		big.NewInt(1), big.NewInt(63), big.NewInt(64), new(big.Int).Sub(q, big.NewInt(1)),
		new(big.Int).Add(q, big.NewInt(7)), big.NewInt(-5),
	}
	for i := 0; i < 100; i++ {
		scalars = append(scalars, mustScalar(t, toy, rng))
	}
	for _, b := range []Element{toy.Generator(), base} {
		limb, big := NewFixedBaseTable(toy, b), NewFixedBaseTable(ref, b)
		for _, k := range scalars {
			want := ref.Exp(b, k)
			if got := limb.Exp(k); !toy.Equal(got, want) {
				t.Fatalf("limb comb disagrees with math/big Exp for k=%x", k)
			}
			if got := big.Exp(k); !toy.Equal(got, want) {
				t.Fatalf("math/big comb disagrees with math/big Exp for k=%x", k)
			}
		}
	}
}

func checkJacobi(t *testing.T, a, n *big.Int) {
	t.Helper()
	l := (n.BitLen() + 63) / 64
	al, nl := make([]uint64, l), make([]uint64, l)
	limbsFromBig(al, a)
	limbsFromBig(nl, n)
	if got, want := jacobiLimbs(al, nl), big.Jacobi(a, n); got != want {
		t.Fatalf("(%x / %x) = %d, want %d", a, n, got, want)
	}
}

// TestJacobiLimbsMatchesBig covers every DL modulus, plus odd
// composites of assorted sizes, which reach the gcd > 1 result.
func TestJacobiLimbsMatchesBig(t *testing.T) {
	moduli := []*big.Int{mustToyDL(t).Modulus(), MODP1024().Modulus(), MODP2048().Modulus(), MODP3072().Modulus()}
	rng := fixedbig.NewDRBG("jacobi-limbs")
	for _, bitsN := range []int{3, 64, 65, 130, 256, 700} {
		n, err := fixedbig.RandNonZero(rng, new(big.Int).Lsh(big.NewInt(1), uint(bitsN)))
		if err != nil {
			t.Fatal(err)
		}
		n.SetBit(n, 0, 1)
		n.SetBit(n, bitsN-1, 1)
		moduli = append(moduli, n, new(big.Int).Mul(n, big.NewInt(3*5*7)))
	}
	for _, n := range moduli {
		vals := fieldEdges(n)
		for _, k := range []uint{255, 256, 257, 511, 512, 1023} {
			pow := new(big.Int).Lsh(big.NewInt(1), k)
			if pow.Cmp(n) < 0 {
				vals = append(vals, new(big.Int).Sub(pow, big.NewInt(1)), pow)
			}
		}
		for i := 0; i < 200; i++ {
			v, err := fixedbig.RandNonZero(rng, n)
			if err != nil {
				t.Fatal(err)
			}
			vals = append(vals, v, new(big.Int).Rsh(v, uint(i%(n.BitLen()))))
		}
		// Multiples of a small factor of n give 0.
		vals = append(vals, new(big.Int).Mod(new(big.Int).Mul(n, big.NewInt(2)), n))
		for _, v := range vals {
			checkJacobi(t, new(big.Int).Mod(v, n), n)
		}
	}
	for i := 0; i < 2000; i++ {
		a, _ := fixedbig.RandNonZero(rng, big.NewInt(1<<62))
		n, _ := fixedbig.RandNonZero(rng, big.NewInt(1<<62))
		n.SetBit(n, 0, 1)
		checkJacobi(t, a.Mod(a, n), n)
	}
}

// TestDLDecodeValidateMatchBig checks that Decode and Validate accept
// and reject exactly what the big.Jacobi checks do, with the same
// error text, on every DL group.
func TestDLDecodeValidateMatchBig(t *testing.T) {
	for _, d := range []*DLGroup{mustToyDL(t), MODP1024(), MODP2048(), MODP3072()} {
		rng := fixedbig.NewDRBG("dl-decode-" + d.Name())
		var vals []*big.Int
		for i := 0; i < 60; i++ {
			v, err := fixedbig.RandNonZero(rng, d.p) // about half are non-residues
			if err != nil {
				t.Fatal(err)
			}
			vals = append(vals, v)
		}
		one := big.NewInt(1)
		vals = append(vals, big.NewInt(0), one, big.NewInt(2), big.NewInt(3),
			new(big.Int).Sub(d.p, one), d.p, new(big.Int).Add(d.p, one), big.NewInt(-4),
			d.unwrap(d.Generator()), new(big.Int).Sub(new(big.Int).Lsh(one, 64), one))
		for _, v := range vals {
			if v.Sign() >= 0 && v.BitLen() <= 8*d.elemLen {
				enc := v.FillBytes(make([]byte, d.elemLen))
				got, err := d.Decode(enc)
				want, werr := refDecode(d, enc)
				sameErr(t, d.Name()+" Decode", err, werr)
				if err == nil && !d.Equal(got, want) {
					t.Fatalf("%s: Decode(%x) disagrees", d.Name(), v)
				}
			}
			sameErr(t, d.Name()+" Validate", Validate(d, dlElement{v: v}), refValidate(d, v))
		}
		sameErr(t, "short", func() error { _, err := d.Decode([]byte{1}); return err }(),
			func() error { _, err := refDecode(d, []byte{1}); return err }())
		sameErr(t, "nil residue", Validate(d, dlElement{}), refValidate(d, nil))
	}
}

// checkDLDecode is the FuzzDLDecode body for one group: the limb
// Jacobi agrees with big.Jacobi on the input read as an integer mod p,
// Decode agrees with the big.Jacobi reference, and every accepted
// element re-encodes to its input and lies in the order-q subgroup.
func checkDLDecode(t *testing.T, g *DLGroup, data []byte) {
	v := new(big.Int).SetBytes(data)
	checkJacobi(t, v.Mod(v, g.p), g.p)
	e, err := g.Decode(data)
	_, werr := refDecode(g, data)
	sameErr(t, g.Name()+" Decode", err, werr)
	if err != nil {
		return
	}
	if !bytes.Equal(g.Encode(e), data) {
		t.Fatal("decode/encode not idempotent")
	}
	if !g.IsIdentity(g.Exp(e, g.Order())) {
		t.Fatal("accepted element outside the order-q subgroup")
	}
}

var benchTable *FixedBaseTable

// Per-layer DL benchmarks, each over toy-dl-256 (the limb field) and
// modp-1024 (math/big). Run with
//
//	go test -run '^$' -bench DL ./internal/group/
func benchDLGroups(b *testing.B, f func(b *testing.B, g *DLGroup, base Element, k *big.Int)) {
	toy, err := ToyDL256()
	if err != nil {
		b.Fatal(err)
	}
	for _, g := range []*DLGroup{toy, MODP1024()} {
		rng := fixedbig.NewDRBG("bench-dl-" + g.Name())
		k1, _ := g.RandomScalar(rng)
		k2, _ := g.RandomScalar(rng)
		base := g.Exp(g.Generator(), k1) // a base other than the generator
		b.Run(g.Name(), func(b *testing.B) { f(b, g, base, k2) })
	}
}

// BenchmarkExpVarDL is a variable-base Exp, as in a partial decryption.
func BenchmarkExpVarDL(b *testing.B) {
	benchDLGroups(b, func(b *testing.B, g *DLGroup, base Element, k *big.Int) {
		for i := 0; i < b.N; i++ {
			benchElem = g.Exp(base, k)
		}
	})
}

// BenchmarkExpFixedDL is g^k through the cached generator comb.
func BenchmarkExpFixedDL(b *testing.B) {
	benchDLGroups(b, func(b *testing.B, g *DLGroup, _ Element, k *big.Int) {
		g.Exp(g.Generator(), k) // build the comb outside the timing
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			benchElem = g.Exp(g.Generator(), k)
		}
	})
}

func BenchmarkOpDL(b *testing.B) {
	benchDLGroups(b, func(b *testing.B, g *DLGroup, base Element, _ *big.Int) {
		other := g.Op(base, g.Generator())
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			benchElem = g.Op(base, other)
		}
	})
}

// BenchmarkValidateDL is the membership check every received element
// passes: range plus quadratic residuosity.
func BenchmarkValidateDL(b *testing.B) {
	benchDLGroups(b, func(b *testing.B, g *DLGroup, base Element, _ *big.Int) {
		for i := 0; i < b.N; i++ {
			if err := Validate(g, base); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkNewFixedBaseTableDL is the per-session table build for a
// joint public key.
func BenchmarkNewFixedBaseTableDL(b *testing.B) {
	benchDLGroups(b, func(b *testing.B, g *DLGroup, base Element, _ *big.Int) {
		for i := 0; i < b.N; i++ {
			benchTable = NewFixedBaseTable(g, base)
		}
	})
}
