package group

import (
	"bytes"
	"testing"
)

// FuzzDLDecode runs every input against toy-dl-256 (the limb field)
// and modp-1024 (math/big), cross-checking the limb Jacobi against
// big.Jacobi; see checkDLDecode.
func FuzzDLDecode(f *testing.F) {
	toy, err := ToyDL256()
	if err != nil {
		f.Fatal(err)
	}
	groups := []*DLGroup{toy, MODP1024()}
	for _, g := range groups {
		f.Add(g.Encode(g.Generator()))
		f.Add(bytes.Repeat([]byte{0xFF}, g.ElementLen()))
		f.Add(g.p.FillBytes(make([]byte, g.ElementLen())))
	}
	f.Add([]byte{0})
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, g := range groups {
			checkDLDecode(t, g, data)
		}
	})
}

func FuzzECDecode(f *testing.F) {
	g, fast := Secp160r1Generic(), Secp160r1()
	f.Add(g.Encode(g.Generator()))
	f.Add([]byte{0x00})
	f.Add([]byte{0x04, 1, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		e, err := g.Decode(data)
		// The limb Decode must accept and reject exactly the same input.
		fe, ferr := fast.Decode(data)
		if (err == nil) != (ferr == nil) || (err != nil && err.Error() != ferr.Error()) {
			t.Fatalf("generic error %v, limb error %v", err, ferr)
		}
		if err != nil {
			return
		}
		if !g.Equal(e, fe) {
			t.Fatal("generic and limb Decode disagree")
		}
		if !bytes.Equal(g.Encode(e), data) {
			t.Fatal("decode/encode not idempotent")
		}
	})
}

// FuzzFe160 checks every limb operation against math/big; see
// checkFe160 for which operations take unreduced inputs.
func FuzzFe160(f *testing.F) {
	f.Add(uint64(1), uint64(2), uint64(3), uint64(4), uint64(5), uint64(6))
	f.Add(^uint64(0), ^uint64(0), uint64(0xFFFFFFFF), ^uint64(0), ^uint64(0), uint64(0xFFFFFFFF))
	f.Add(uint64(0xFFFFFFFF7FFFFFFE), ^uint64(0), uint64(0xFFFFFFFF), ^uint64(0), ^uint64(0), uint64(0xFFFFFFFF))
	f.Add(^uint64(0), uint64(0), uint64(0), uint64(0), ^uint64(0), uint64(0))
	f.Fuzz(func(t *testing.T, a0, a1, a2, b0, b1, b2 uint64) {
		a := fe160{a0, a1, a2 & fe160Mask32}
		b := fe160{b0, b1, b2 & fe160Mask32}
		checkFe160(t, a.big(), b.big())
	})
}
