package groupranking

import (
	"context"
	"errors"
	"sync"
	"testing"

	"groupranking/internal/transport"
)

// runDistributed runs the full framework as one initiator plus
// len(profiles) participant goroutines over a localhost TCP mesh —
// exactly what separate rankparty processes would do — and returns the
// initiator's view plus every participant's self-computed rank.
func runDistributed(t *testing.T, crit Criterion, profiles []Profile, opts Options) (*InitiatorResult, []int) {
	t.Helper()
	q := demoQuestionnaire(t)
	addrs, err := transport.FreeLoopbackAddrs(len(profiles) + 1)
	if err != nil {
		t.Fatal(err)
	}
	var (
		wg       sync.WaitGroup
		initRes  *InitiatorResult
		initErr  error
		ranks    = make([]int, len(profiles))
		partErrs = make([]error, len(profiles))
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		initRes, initErr = RankInitiatorParty(context.Background(), q, crit, addrs, opts)
	}()
	for j := 1; j <= len(profiles); j++ {
		j := j
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := RankParticipantParty(context.Background(), q, addrs, j, profiles[j-1], opts)
			if err != nil {
				partErrs[j-1] = err
				return
			}
			ranks[j-1] = res.Rank
		}()
	}
	wg.Wait()
	if initErr != nil {
		t.Fatalf("initiator: %v", initErr)
	}
	for j, err := range partErrs {
		if err != nil {
			t.Fatalf("participant %d: %v", j+1, err)
		}
	}
	return initRes, ranks
}

// TestRankPartyMatchesInProcess is the deployment-correctness anchor:
// a seed-fixed distributed run (one initiator + three participants over
// real localhost TCP) must produce byte-identical Ranks and Submissions
// to the in-process Rank harness with the same seed — for both phase-2
// sorters and for both a DL and an EC group.
func TestRankPartyMatchesInProcess(t *testing.T) {
	cases := []struct {
		name   string
		sorter Sorter
		group  string
	}{
		{"unlinkable-dl", Unlinkable, "toy-dl-256"},
		{"unlinkable-ec", Unlinkable, "secp160r1"},
		{"secret-sharing-dl", SecretSharing, "toy-dl-256"},
		{"secret-sharing-ec", SecretSharing, "secp160r1"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			q := demoQuestionnaire(t)
			crit, profiles := demoData(t)
			profiles = profiles[:3]
			opts := fastOpts("tcp-equiv-" + tc.name)
			opts.Sorter = tc.sorter
			opts.GroupName = tc.group

			want, err := Rank(context.Background(), q, crit, profiles, opts)
			if err != nil {
				t.Fatal(err)
			}
			got, ranks := runDistributed(t, crit, profiles, opts)

			for j, r := range ranks {
				if r != want.Ranks[j] {
					t.Errorf("participant %d: distributed rank %d, in-process %d", j+1, r, want.Ranks[j])
				}
			}
			if len(got.Submissions) != len(want.Submissions) {
				t.Fatalf("got %d submissions, in-process run got %d", len(got.Submissions), len(want.Submissions))
			}
			for i, s := range got.Submissions {
				w := want.Submissions[i]
				if s.Participant != w.Participant || s.ClaimedRank != w.ClaimedRank {
					t.Errorf("submission %d: got participant %d rank %d, want participant %d rank %d",
						i, s.Participant, s.ClaimedRank, w.Participant, w.ClaimedRank)
				}
				if len(s.Profile.Values) != len(w.Profile.Values) {
					t.Fatalf("submission %d: profile length %d vs %d", i, len(s.Profile.Values), len(w.Profile.Values))
				}
				for a := range s.Profile.Values {
					if s.Profile.Values[a] != w.Profile.Values[a] {
						t.Errorf("submission %d attribute %d: got %d, want %d", i, a, s.Profile.Values[a], w.Profile.Values[a])
					}
				}
				if s.Gain.Cmp(w.Gain) != 0 {
					t.Errorf("submission %d: recomputed gain %v, want %v", i, s.Gain, w.Gain)
				}
			}
			if len(got.Suspicious) != len(want.Suspicious) {
				t.Errorf("got %d suspicious parties, want %d", len(got.Suspicious), len(want.Suspicious))
			}
		})
	}
}

// TestRankPartySessionMismatch starts one participant with a different
// top-k cut: the pre-crypto handshake must abort every party with a
// typed *transport.AbortError carrying ErrSessionMismatch — no crypto
// round ever runs against the misconfigured mesh.
func TestRankPartySessionMismatch(t *testing.T) {
	t.Parallel()
	q := demoQuestionnaire(t)
	crit, profiles := demoData(t)
	profiles = profiles[:3]
	addrs, err := transport.FreeLoopbackAddrs(len(profiles) + 1)
	if err != nil {
		t.Fatal(err)
	}
	opts := fastOpts("tcp-mismatch")
	opts.GroupName = "toy-dl-256"

	errs := make([]error, len(profiles)+1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, errs[0] = RankInitiatorParty(context.Background(), q, crit, addrs, opts)
	}()
	for j := 1; j <= len(profiles); j++ {
		j := j
		wg.Add(1)
		go func() {
			defer wg.Done()
			o := opts
			if j == 2 {
				o.K = o.K + 1 // the misconfigured deployment
			}
			_, errs[j] = RankParticipantParty(context.Background(), q, addrs, j, profiles[j-1], o)
		}()
	}
	wg.Wait()

	for i, err := range errs {
		if err == nil {
			t.Fatalf("party %d completed despite the parameter mismatch", i)
		}
		var abort *transport.AbortError
		if !errors.As(err, &abort) {
			t.Errorf("party %d: error %v is not a typed abort", i, err)
		}
	}
	// The misconfigured party deterministically sees everyone else
	// disagreeing with it; peers may race its teardown, so only its own
	// diagnosis is pinned.
	if !errors.Is(errs[2], ErrSessionMismatch) {
		t.Errorf("misconfigured party: error %v does not carry ErrSessionMismatch", errs[2])
	}
	mismatched := 0
	for _, err := range errs {
		if errors.Is(err, ErrSessionMismatch) {
			mismatched++
		}
	}
	if mismatched < 2 {
		t.Errorf("only %d parties diagnosed the session mismatch", mismatched)
	}
}

// TestRankPartyValidation pins the entry points' argument checking.
func TestRankPartyValidation(t *testing.T) {
	t.Parallel()
	q := demoQuestionnaire(t)
	crit, profiles := demoData(t)
	addrs := []string{"127.0.0.1:0", "127.0.0.1:0", "127.0.0.1:0", "127.0.0.1:0"}

	if _, err := RankInitiatorParty(context.Background(), nil, crit, addrs, fastOpts("v")); err == nil {
		t.Error("nil questionnaire accepted")
	}
	if _, err := RankInitiatorParty(context.Background(), q, crit, addrs[:2], fastOpts("v")); err == nil {
		t.Error("two-address mesh accepted (needs initiator plus two participants)")
	}
	for _, me := range []int{0, -1, len(addrs)} {
		if _, err := RankParticipantParty(context.Background(), q, addrs, me, profiles[0], fastOpts("v")); err == nil {
			t.Errorf("participant index %d accepted", me)
		}
	}
	bad := fastOpts("v")
	bad.GroupName = "no-such-group"
	if _, err := RankInitiatorParty(context.Background(), q, crit, addrs, bad); err == nil {
		t.Error("unknown group accepted")
	}
}
