package transport

import (
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"groupranking/internal/leakcheck"
)

// The Net conformance suite: one table of properties every Net
// implementation must satisfy, run against every implementation the
// repository ships. A property that holds on the in-memory fabric but
// not on a TCP mesh (or the other way round) is a behaviour the
// protocol code could come to depend on by accident, so each property
// runs everywhere. The suite is never skipped in short mode.

type wirePayload struct {
	From int
	Text string
}

var _wireTestOnce sync.Once

// registerWireTest gob-registers the test payload, which has no
// wirecodec codec and so rides the gob-fallback frame on real meshes.
func registerWireTest() {
	_wireTestOnce.Do(func() { gob.Register(wirePayload{}) })
}

// deployment is one Net implementation deployed for n parties.
type deployment struct {
	// nets[i] is party i's view; in-process nets share one value.
	nets []Net
	// party maps a view index to the index AbortErrors name (SubView
	// reports its parent's indices).
	party func(i int) int
	// stats merges every party's observations into mesh-wide Stats.
	stats func() Stats
	// close shuts party i's endpoint down locally (the whole net, for
	// in-process nets, which have no per-party endpoint).
	close func(i int)
	// down makes party i fail the way a crashed peer does.
	down func(i int)
}

// netImpl names one implementation and how to deploy it.
type netImpl struct {
	name string
	// realTCP marks implementations whose peers are separate processes
	// behind sockets.
	realTCP bool
	// deploy builds an n-party deployment whose receives time out after
	// timeout; teardown is registered with t.Cleanup.
	deploy func(t *testing.T, n int, timeout time.Duration) *deployment
}

// suiteGrace bounds a recovering link outage in the suite, so a closed
// peer is blamed quickly.
const suiteGrace = 300 * time.Millisecond

var netImpls = []netImpl{
	{name: "fabric", deploy: func(t *testing.T, n int, timeout time.Duration) *deployment {
		f, err := New(n, WithRecvTimeout(timeout))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(f.Close)
		return shared(n, f, f.Stats, f.Close, f.MarkDown)
	}},
	{name: "tcp-session", realTCP: true, deploy: func(t *testing.T, n int, timeout time.Duration) *deployment {
		eps := formMesh(t, n, func(addrs []string, me int) (Net, error) {
			return NewTCPSession(addrs, me, timeout, nil)
		})
		return endpoints(eps)
	}},
	{name: "recovering-mux", realTCP: true, deploy: func(t *testing.T, n int, timeout time.Duration) *deployment {
		eps := formMesh(t, n, func(addrs []string, me int) (Net, error) {
			m, err := NewSessionMux(addrs, me, timeout, MuxOptions{Recovery: &MuxRecovery{Epoch: 1, Grace: suiteGrace}})
			if err != nil {
				return nil, err
			}
			s, err := m.OpenRecovering("conformance", timeout, newMemJournal())
			if err != nil {
				m.Close()
				return nil, err
			}
			s.ownsMux = true // closed like a one-session endpoint
			return s, nil
		})
		return endpoints(eps)
	}},
	{name: "recovering-fabric", realTCP: true, deploy: func(t *testing.T, n int, timeout time.Duration) *deployment {
		eps := formMesh(t, n, func(addrs []string, me int) (Net, error) {
			return NewRecoveringTCPFabric(addrs, me, timeout, RecoverOptions{SessionID: "conformance", Epoch: 1, Grace: suiteGrace})
		})
		return endpoints(eps)
	}},
	{name: "faultnet", deploy: func(t *testing.T, n int, timeout time.Duration) *deployment {
		f, err := New(n, WithRecvTimeout(timeout))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(f.Close)
		return shared(n, NewFaultNet(f, FaultPlan{}), f.Stats, f.Close, f.MarkDown)
	}},
	{name: "subview", realTCP: true, deploy: func(t *testing.T, n int, timeout time.Duration) *deployment {
		// Parties 1..n of an (n+1)-party TCP mesh, with every round
		// shifted: the view must translate indices and tags both ways.
		const offset = 1000
		parents := formMesh(t, n+1, func(addrs []string, me int) (Net, error) {
			return NewTCPSession(addrs, me, timeout, nil)
		})
		members := make([]int, n)
		for i := range members {
			members[i] = i + 1
		}
		d := &deployment{nets: make([]Net, n), party: func(i int) int { return members[i] }}
		for i := range d.nets {
			v, err := NewSubView(parents[members[i]], members, offset)
			if err != nil {
				t.Fatal(err)
			}
			d.nets[i] = v
		}
		d.stats = func() Stats {
			s := mergeEndpointStats(parents)
			out := Stats{
				MessagesSent: s.MessagesSent[1:], BytesSent: s.BytesSent[1:],
				MaxRound: s.MaxRound - offset, DistinctRounds: s.DistinctRounds,
				PerRound:     make(map[int]RoundStats, len(s.PerRound)),
				EchoMessages: s.EchoMessages, EchoBytes: s.EchoBytes,
			}
			for r, rs := range s.PerRound {
				out.PerRound[r-offset] = rs
			}
			return out
		}
		d.close = func(i int) { parents[members[i]].Close() }
		d.down = d.close
		return d
	}},
}

// endpoint is what a real mesh hands each party.
type endpoint interface {
	Net
	Stats() Stats
	Close()
}

// formMesh builds n endpoints concurrently (mesh formation needs every
// party dialing at once) and closes them at cleanup.
func formMesh(t *testing.T, n int, build func(addrs []string, me int) (Net, error)) []endpoint {
	t.Helper()
	registerWireTest()
	addrs, err := FreeLoopbackAddrs(n)
	if err != nil {
		t.Fatal(err)
	}
	eps := make([]endpoint, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for me := 0; me < n; me++ {
		wg.Add(1)
		go func(me int) {
			defer wg.Done()
			var nt Net
			if nt, errs[me] = build(addrs, me); errs[me] == nil {
				eps[me] = nt.(endpoint)
			}
		}(me)
	}
	wg.Wait()
	t.Cleanup(func() {
		for _, ep := range eps {
			if ep != nil {
				ep.Close()
			}
		}
	})
	for me, err := range errs {
		if err != nil {
			t.Fatalf("party %d: %v", me, err)
		}
	}
	return eps
}

func shared(n int, nt Net, stats func() Stats, closeAll func(), down func(int)) *deployment {
	d := &deployment{nets: make([]Net, n), party: func(i int) int { return i }, stats: stats, down: down}
	for i := range d.nets {
		d.nets[i] = nt
	}
	d.close = func(int) { closeAll() }
	return d
}

func endpoints(eps []endpoint) *deployment {
	d := &deployment{nets: make([]Net, len(eps)), party: func(i int) int { return i }}
	for i, ep := range eps {
		d.nets[i] = ep
	}
	d.stats = func() Stats { return mergeEndpointStats(eps) }
	d.close = func(i int) { eps[i].Close() }
	d.down = d.close
	return d
}

// mergeEndpointStats sums what each endpoint observed of its own sends
// into the mesh-wide shape the in-memory fabric reports.
func mergeEndpointStats(eps []endpoint) Stats {
	n := len(eps)
	out := Stats{MessagesSent: make([]int64, n), BytesSent: make([]int64, n), PerRound: map[int]RoundStats{}}
	for i, ep := range eps {
		s := ep.Stats()
		out.MessagesSent[i] = s.MessagesSent[i]
		out.BytesSent[i] = s.BytesSent[i]
		out.MaxRound = max(out.MaxRound, s.MaxRound)
		out.EchoMessages += s.EchoMessages
		out.EchoBytes += s.EchoBytes
		for r, rs := range s.PerRound {
			acc := out.PerRound[r]
			acc.Messages += rs.Messages
			acc.Bytes += rs.Bytes
			out.PerRound[r] = acc
		}
	}
	out.DistinctRounds = len(out.PerRound)
	return out
}

// allParties runs fn for every party concurrently and fails the test
// with every error returned.
func allParties(t *testing.T, n int, fn func(i int) error) {
	t.Helper()
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = fn(i)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("party %d: %v", i, err)
		}
	}
}

// wantAbort checks err is an *AbortError naming party and carrying
// cause.
func wantAbort(t *testing.T, err error, party int, cause error) {
	t.Helper()
	var abort *AbortError
	if !errors.As(err, &abort) {
		t.Fatalf("got %v, want an *AbortError", err)
	}
	if !errors.Is(err, cause) {
		t.Fatalf("abort cause = %v, want %v", abort.Cause, cause)
	}
	if abort.Party != party {
		t.Fatalf("abort names party %d, want %d (%v)", abort.Party, party, err)
	}
}

const suiteTimeout = 5 * time.Second

var netProperties = []struct {
	name string
	run  func(t *testing.T, impl netImpl)
}{
	// Per-peer FIFO: each sender's messages arrive in send order, and
	// streams from different senders to one receiver do not interfere.
	{"fifo", func(t *testing.T, impl netImpl) {
		const n, count = 3, 50
		d := impl.deploy(t, n, suiteTimeout)
		allParties(t, n, func(i int) error {
			if i != 1 {
				for k := 0; k < count; k++ {
					if err := d.nets[i].Send(3, i, 1, 4, wirePayload{From: i, Text: fmt.Sprint(k)}); err != nil {
						return err
					}
				}
				return nil
			}
			for k := 0; k < count; k++ {
				for _, from := range []int{0, 2} {
					got, err := d.nets[1].RecvCtx(context.Background(), 1, from, 3)
					if err != nil {
						return err
					}
					if p := got.(wirePayload); p.From != from || p.Text != fmt.Sprint(k) {
						return fmt.Errorf("message %d from party %d arrived as %#v", k, from, p)
					}
				}
			}
			return nil
		})
	}},
	// Broadcast reaches every other party and GatherAll returns one
	// message per sender in its sender's slot.
	{"broadcast-gather", func(t *testing.T, impl netImpl) {
		const n = 4
		d := impl.deploy(t, n, suiteTimeout)
		allParties(t, n, func(i int) error {
			if err := d.nets[i].Broadcast(1, i, 8, wirePayload{From: i}); err != nil {
				return err
			}
			all, err := d.nets[i].GatherAllCtx(context.Background(), i, 1)
			if err != nil {
				return err
			}
			for from := 0; from < n; from++ {
				if from == i {
					if all[from] != nil {
						return fmt.Errorf("self slot holds %#v", all[from])
					}
				} else if all[from].(wirePayload).From != from {
					return fmt.Errorf("slot %d holds %#v", from, all[from])
				}
			}
			return nil
		})
	}},
	// A message carrying a different round tag than the receiver
	// expects aborts the receive, naming the sender, with a
	// round-replay certificate.
	{"round-mismatch", func(t *testing.T, impl netImpl) {
		d := impl.deploy(t, 2, suiteTimeout)
		if err := d.nets[0].Send(3, 0, 1, 4, wirePayload{}); err != nil {
			t.Fatal(err)
		}
		_, err := d.nets[1].RecvCtx(context.Background(), 1, 0, 4)
		wantAbort(t, err, d.party(0), ErrRoundMismatch)
		if abort, _ := IsAbort(err); abort.Cert == nil || abort.Cert.Check != CheckRoundReplay {
			t.Fatalf("round mismatch carries cert %+v, want a %s certificate", abort.Cert, CheckRoundReplay)
		}
	}},
	// Broadcast is best effort: with one peer down the survivors still
	// get the message, and an error (if any) names the dead peer.
	{"broadcast-peer-down", func(t *testing.T, impl netImpl) {
		d := impl.deploy(t, 3, suiteTimeout)
		d.down(1)
		// Wait until party 0 has itself seen the death, so the leg to
		// party 1 is the one that fails on every implementation that
		// fails legs at all.
		_, err := d.nets[0].RecvCtx(context.Background(), 0, 1, -1)
		wantAbort(t, err, d.party(1), ErrPeerDown)
		if err := d.nets[0].Broadcast(2, 0, 8, wirePayload{Text: "survivors"}); err != nil {
			wantAbort(t, err, d.party(1), ErrPeerDown)
		}
		got, err := d.nets[2].RecvCtx(context.Background(), 2, 0, 2)
		if err != nil {
			t.Fatalf("survivor lost the broadcast: %v", err)
		}
		if got.(wirePayload).Text != "survivors" {
			t.Fatalf("survivor got %#v", got)
		}
	}},
	// Echo sub-round traffic is tallied apart from the protocol
	// counters.
	{"echo-tally", func(t *testing.T, impl netImpl) {
		d := impl.deploy(t, 2, suiteTimeout)
		if err := d.nets[0].Send(5, 0, 1, 10, wirePayload{}); err != nil {
			t.Fatal(err)
		}
		if err := d.nets[0].Send(EchoRound(5), 0, 1, 64, echoMsg{Digests: [][]byte{{1}, {2}}}); err != nil {
			t.Fatal(err)
		}
		for _, r := range []int{5, EchoRound(5)} {
			if _, err := d.nets[1].RecvCtx(context.Background(), 1, 0, r); err != nil {
				t.Fatalf("round %d: %v", r, err)
			}
		}
		want := Stats{
			MessagesSent: []int64{1, 0}, BytesSent: []int64{10, 0},
			MaxRound: 5, DistinctRounds: 1, PerRound: map[int]RoundStats{5: {Messages: 1, Bytes: 10}},
			EchoMessages: 1, EchoBytes: 64,
		}
		if got := d.stats(); !reflect.DeepEqual(got, want) {
			t.Fatalf("stats = %+v, want %+v", got, want)
		}
	}},
	// Every implementation reports identical Stats for one scripted
	// traffic pattern.
	{"stats-parity", func(t *testing.T, impl netImpl) {
		const n = 3
		d := impl.deploy(t, n, suiteTimeout)
		allParties(t, n, func(i int) error {
			nt := d.nets[i]
			if err := nt.Broadcast(1, i, 10*(i+1), wirePayload{From: i}); err != nil {
				return err
			}
			if i == 0 {
				if err := nt.Send(2, 0, 2, 7, wirePayload{}); err != nil {
					return err
				}
			}
			if _, err := nt.GatherAllCtx(context.Background(), i, 1); err != nil {
				return err
			}
			if i == 2 {
				if _, err := nt.RecvCtx(context.Background(), 2, 0, 2); err != nil {
					return err
				}
			}
			if err := nt.Broadcast(EchoRound(1), i, 96, echoMsg{}); err != nil {
				return err
			}
			_, err := nt.GatherAllCtx(context.Background(), i, EchoRound(1))
			return err
		})
		want := Stats{
			MessagesSent: []int64{3, 2, 2}, BytesSent: []int64{27, 40, 60},
			MaxRound: 2, DistinctRounds: 2,
			PerRound:     map[int]RoundStats{1: {Messages: 6, Bytes: 120}, 2: {Messages: 1, Bytes: 7}},
			EchoMessages: 6, EchoBytes: 576,
		}
		if got := d.stats(); !reflect.DeepEqual(got, want) {
			t.Fatalf("stats = %+v, want %+v", got, want)
		}
	}},
	// A local Close — repeated, concurrent, with a receive in flight —
	// fails receives with ErrClosed and makes sends error, never hang.
	{"recv-closed", func(t *testing.T, impl netImpl) {
		d := impl.deploy(t, 3, suiteTimeout)
		inflight := make(chan error, 1)
		go func() {
			_, err := d.nets[0].RecvCtx(context.Background(), 0, 1, 7)
			inflight <- err
		}()
		time.Sleep(20 * time.Millisecond) // let the receive block
		var wg sync.WaitGroup
		for k := 0; k < 4; k++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				d.close(0)
			}()
		}
		wg.Wait()
		d.close(0)
		select {
		case err := <-inflight:
			wantAbort(t, err, d.party(1), ErrClosed)
		case <-time.After(suiteTimeout):
			t.Fatal("in-flight receive hung through Close")
		}
		_, err := d.nets[0].RecvCtx(context.Background(), 0, 2, 7)
		wantAbort(t, err, d.party(2), ErrClosed)
		if err := d.nets[0].Send(7, 0, 1, 1, wirePayload{Text: "late"}); err == nil {
			t.Fatal("send after Close succeeded")
		}
	}},
	// A peer that goes away surfaces as a typed ErrPeerDown naming it.
	{"recv-peer-down", func(t *testing.T, impl netImpl) {
		d := impl.deploy(t, 2, suiteTimeout)
		d.down(1)
		_, err := d.nets[0].RecvCtx(context.Background(), 0, 1, 3)
		wantAbort(t, err, d.party(1), ErrPeerDown)
	}},
	// A cancelled context ends the receive with the context's error.
	{"recv-cancel", func(t *testing.T, impl netImpl) {
		d := impl.deploy(t, 2, suiteTimeout)
		ctx, cancel := context.WithCancel(context.Background())
		time.AfterFunc(20*time.Millisecond, cancel)
		_, err := d.nets[0].RecvCtx(ctx, 0, 1, 3)
		wantAbort(t, err, d.party(1), context.Canceled)
	}},
	// The implementation's receive timeout ends a silent wait with
	// ErrTimeout.
	{"recv-timeout", func(t *testing.T, impl netImpl) {
		d := impl.deploy(t, 2, 50*time.Millisecond)
		_, err := d.nets[0].RecvCtx(context.Background(), 0, 1, 3)
		wantAbort(t, err, d.party(1), ErrTimeout)
	}},
	// Real meshes run the echo sub-round; in-process nets, which share
	// one memory space and cannot equivocate, skip it.
	{"needs-echo", func(t *testing.T, impl netImpl) {
		d := impl.deploy(t, 2, suiteTimeout)
		for i, nt := range d.nets {
			if got := NeedsEcho(nt); got != impl.realTCP {
				t.Fatalf("party %d: NeedsEcho = %v, want %v", i, got, impl.realTCP)
			}
		}
	}},
}

// TestNetConformance runs every property against every implementation,
// each on a fresh deployment and under the goroutine leak checker.
func TestNetConformance(t *testing.T) {
	for _, prop := range netProperties {
		t.Run(prop.name, func(t *testing.T) {
			for _, impl := range netImpls {
				t.Run(impl.name, func(t *testing.T) {
					leakcheck.Check(t)
					prop.run(t, impl)
				})
			}
		})
	}
}
