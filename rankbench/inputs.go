package main

import (
	"fmt"
	"math/rand/v2"
	"slices"

	"groupranking"
)

// The session spec every workload shares: rankload's two-attribute
// questionnaire, criterion and bit widths, four participants.
const (
	participants = 4
	topK         = 2
	specD1       = 7
	specD2       = 3
	specH        = 5
)

var (
	attributes = []groupranking.Attribute{
		{Name: "age", Kind: groupranking.EqualTo},
		{Name: "activity", Kind: groupranking.GreaterThan},
	}
	criterion = groupranking.Criterion{Values: []int64{30, 0}, Weights: []int64{2, 1}}
)

// inputs derives every input of a run from the benchmark's seed: the
// participant profiles and the protocol seed of each ranking. The same
// seed always yields the same inputs.
type inputs struct {
	seed uint64
	rng  *rand.Rand
	q    *groupranking.Questionnaire
}

func newInputs(seed uint64) (*inputs, error) {
	q, err := groupranking.NewQuestionnaire(attributes)
	if err != nil {
		return nil, err
	}
	return &inputs{seed: seed, rng: rand.New(rand.NewPCG(seed, 0x72616e6b62656e63)), q: q}, nil
}

// ranking is one ranking's inputs and its plaintext ground truth.
type ranking struct {
	index    int
	seed     string
	profiles []groupranking.Profile
	expected []int // ExpectedRanks: each participant's true rank
}

// next draws the inputs of the next ranking. Ages fall in [18, 60)
// and activity in [0, 100), inside the 7-bit attribute width.
func (in *inputs) next(index int) (ranking, error) {
	r := ranking{index: index, seed: fmt.Sprintf("rankbench-%d-%d", in.seed, index)}
	r.profiles = make([]groupranking.Profile, participants)
	for j := range r.profiles {
		r.profiles[j] = groupranking.Profile{Values: []int64{18 + in.rng.Int64N(42), in.rng.Int64N(100)}}
	}
	var err error
	r.expected, err = groupranking.ExpectedRanks(in.q, criterion, r.profiles)
	return r, err
}

// submission is the part of a top-k disclosure the ground truth fixes,
// common to the in-process and the service result types.
type submission struct {
	participant, claimedRank int
	values                   []int64
}

// The protocol ranks masked gains β = ρ·gain + ρ_j, with ρ_j < ρ drawn
// at random, by counting the strictly larger β. It therefore keeps the
// strict order of the plaintext gains, while participants with equal
// gains (sharing a rank in ExpectedRanks) are ordered by their random
// ρ_j and still share a rank where those collide.
//
// allowed returns the ranks participant p may hold: its tie block
// [expected, expected + ties].
func (r ranking) allowed(p int) (lo, hi int) {
	lo = r.expected[p]
	hi = lo - 1
	for _, e := range r.expected {
		if e == lo {
			hi++
		}
	}
	return lo, hi
}

// verifyRanks checks every participant's learned rank: each lies in its
// tie block, and each is one more than the number of ranks above it, as
// ranking any set of values gives.
func verifyRanks(r ranking, ranks []int) error {
	if len(ranks) != len(r.expected) {
		return fmt.Errorf("ranking %d: %d ranks for %d participants", r.index, len(ranks), len(r.expected))
	}
	for p, rank := range ranks {
		lo, hi := r.allowed(p)
		above := 0
		for _, other := range ranks {
			if other < rank {
				above++
			}
		}
		if rank < lo || rank > hi || rank != above+1 {
			return fmt.Errorf("ranking %d: ranks %v, ground truth %v", r.index, ranks, r.expected)
		}
	}
	return nil
}

// verifyTopK checks the initiator's view against the verified ranks,
// as rankload checks it against the ground truth: exactly the
// participants ranked within k submitted, each once, claiming its own
// rank and carrying its own profile.
func verifyTopK(r ranking, subs []submission, ranks []int) error {
	want := 0
	for _, rank := range ranks {
		if rank <= topK {
			want++
		}
	}
	if len(subs) != want {
		return fmt.Errorf("ranking %d: %d submissions, %d participants ranked within the top %d", r.index, len(subs), want, topK)
	}
	from := map[int]bool{}
	for _, s := range subs {
		if s.participant < 0 || s.participant >= len(ranks) || from[s.participant] || ranks[s.participant] > topK {
			return fmt.Errorf("ranking %d: unexpected submission from participant %d", r.index, s.participant)
		}
		from[s.participant] = true
		if s.claimedRank != ranks[s.participant] {
			return fmt.Errorf("ranking %d: participant %d claimed rank %d, its rank is %d", r.index, s.participant, s.claimedRank, ranks[s.participant])
		}
		if !slices.Equal(s.values, r.profiles[s.participant].Values) {
			return fmt.Errorf("ranking %d: participant %d submitted %v, its profile is %v", r.index, s.participant, s.values, r.profiles[s.participant].Values)
		}
	}
	return nil
}

func coreSubmissions(subs []groupranking.Submission) []submission {
	out := make([]submission, len(subs))
	for i, s := range subs {
		out[i] = submission{participant: s.Participant, claimedRank: s.ClaimedRank, values: s.Profile.Values}
	}
	return out
}
