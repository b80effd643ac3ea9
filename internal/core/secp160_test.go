package core

import (
	"context"
	"reflect"
	"testing"

	"groupranking/internal/group"
	"groupranking/internal/obsv"
)

// TestSecp160LimbMatchesGeneric runs one seeded framework instance on
// the limb-field secp160r1 every public entry point uses and on the
// generic math/big oracle. Ranks, submissions, per-party traffic and
// the exponentiation and decryption counts must be identical: the limb
// field changes how fast the group computes, never what it computes.
func TestSecp160LimbMatchesGeneric(t *testing.T) {
	type outcome struct {
		res        *Result
		msgs       []int64
		bytes      []int64
		exps, decs []int64
	}
	run := func(g group.Group) outcome {
		params := Params{N: 3, M: 2, T: 1, D1: 4, D2: 3, H: 4, K: 2, Group: g}
		in := testInputs(t, params, "secp160-limb-vs-generic")
		reg := obsv.NewRegistry()
		ctx := obsv.WithRegistry(context.Background(), reg)
		res, fab, err := RunCtx(ctx, params, in, "secp160-limb-vs-generic-run", nil)
		if err != nil {
			t.Fatal(err)
		}
		stats := fab.Stats()
		out := outcome{res: res, msgs: stats.MessagesSent, bytes: stats.BytesSent}
		for p := 0; p <= params.N; p++ {
			out.exps = append(out.exps, reg.PartyTotal(p, obsv.OpGroupExp))
			out.decs = append(out.decs, reg.PartyTotal(p, obsv.OpDecrypt))
		}
		return out
	}
	fast, slow := run(group.Secp160r1()), run(group.Secp160r1Generic())
	if !reflect.DeepEqual(fast.res.Ranks, slow.res.Ranks) {
		t.Errorf("ranks: limb %v, generic %v", fast.res.Ranks, slow.res.Ranks)
	}
	if !reflect.DeepEqual(fast.res.Submissions, slow.res.Submissions) {
		t.Errorf("submissions: limb %+v, generic %+v", fast.res.Submissions, slow.res.Submissions)
	}
	for _, c := range []struct {
		what       string
		fast, slow []int64
	}{
		{"messages", fast.msgs, slow.msgs},
		{"bytes", fast.bytes, slow.bytes},
		{"group exps", fast.exps, slow.exps},
		{"decryptions", fast.decs, slow.decs},
	} {
		if !reflect.DeepEqual(c.fast, c.slow) {
			t.Errorf("%s per party: limb %v, generic %v", c.what, c.fast, c.slow)
		}
	}
	if fast.exps[1] == 0 || fast.decs[1] == 0 {
		t.Errorf("participant 1 counted %d exps and %d decryptions: the counters are not wired", fast.exps[1], fast.decs[1])
	}
}
