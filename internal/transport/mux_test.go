package transport

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"groupranking/internal/leakcheck"
	"groupranking/internal/telemetry"
)

// muxMesh builds an n-daemon mux mesh over loopback and returns the
// endpoints plus a teardown.
func muxMesh(t *testing.T, n int, optsFor func(i int) MuxOptions) []*SessionMux {
	t.Helper()
	addrs, err := FreeLoopbackAddrs(n)
	if err != nil {
		t.Fatalf("reserving addrs: %v", err)
	}
	muxes := make([]*SessionMux, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			muxes[i], errs[i] = NewSessionMux(addrs, i, 5*time.Second, optsFor(i))
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("mux %d: %v", i, err)
		}
	}
	t.Cleanup(func() {
		for _, m := range muxes {
			m.Close()
		}
	})
	return muxes
}

// openAll opens sid on every endpoint of the mesh.
func openAll(t *testing.T, muxes []*SessionMux, sid string) []*MuxSession {
	t.Helper()
	out := make([]*MuxSession, len(muxes))
	for i, m := range muxes {
		s, err := m.Open(sid, 0)
		if err != nil {
			t.Fatalf("open %q on %d: %v", sid, i, err)
		}
		out[i] = s
	}
	return out
}

// ringPass sends one tagged integer around the ring and checks every
// hop sees the session-specific value.
func ringPass(t *testing.T, sess []*MuxSession, base int) {
	t.Helper()
	n := len(sess)
	var wg sync.WaitGroup
	errCh := make(chan error, n)
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			next := (i + 1) % n
			prev := (i + n - 1) % n
			if err := sess[i].Send(7, i, next, 8, base+i); err != nil {
				errCh <- fmt.Errorf("party %d send: %w", i, err)
				return
			}
			v, err := sess[i].RecvCtx(context.Background(), i, prev, 7)
			if err != nil {
				errCh <- fmt.Errorf("party %d recv: %w", i, err)
				return
			}
			if got, want := v.(int), base+prev; got != want {
				errCh <- fmt.Errorf("party %d got %d, want %d", i, got, want)
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}

// Two sessions ride the same mesh concurrently; the telemetry link
// counter proves exactly one connection per peer pair was ever made.
func TestMuxSessionsShareOneLink(t *testing.T) {
	defer leakcheck.Check(t)
	// Only party 0 gets the registry: the link counters are per
	// endpoint, and sharing one registry across parties would conflate
	// their views of "peer".
	reg := telemetry.NewRegistry()
	muxes := muxMesh(t, 3, func(i int) MuxOptions {
		if i == 0 {
			return MuxOptions{Telemetry: reg}
		}
		return MuxOptions{}
	})
	a := openAll(t, muxes, "sess-a")
	b := openAll(t, muxes, "sess-b")
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); ringPass(t, a, 100) }()
	go func() { defer wg.Done(); ringPass(t, b, 200) }()
	wg.Wait()
	for _, s := range append(a, b...) {
		s.Close()
	}
	// Party 0 accepted exactly one connection from each higher peer.
	var buf strings.Builder
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	dump := buf.String()
	for _, want := range []string{
		`mux_link_connects_total{peer="1"} 1`,
		`mux_link_connects_total{peer="2"} 1`,
	} {
		if !strings.Contains(dump, want) {
			t.Errorf("metrics missing %q:\n%s", want, dump)
		}
	}
}

// Frames sent into a session before the receiver opens it are buffered
// and replayed in order on Open.
func TestMuxPendingReplay(t *testing.T) {
	defer leakcheck.Check(t)
	muxes := muxMesh(t, 2, func(int) MuxOptions { return MuxOptions{} })
	s0, err := muxes[0].Open("early", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer s0.Close()
	for i := 0; i < 3; i++ {
		if err := s0.Send(i, 0, 1, 4, 10+i); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	// Give the frames time to land in the pending buffer, then open.
	time.Sleep(50 * time.Millisecond)
	s1, err := muxes[1].Open("early", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer s1.Close()
	for i := 0; i < 3; i++ {
		v, err := s1.RecvCtx(context.Background(), 1, 0, i)
		if err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		if v.(int) != 10+i {
			t.Fatalf("recv %d: got %v", i, v)
		}
	}
}

// Frames a peer sent before its link died are still received by a
// session opened after the death, and only then does the failure
// surface, typed and naming the peer — the order a live session sees.
func TestMuxPendingReplayBeforeLinkFailure(t *testing.T) {
	defer leakcheck.Check(t)
	muxes := muxMesh(t, 2, func(int) MuxOptions { return MuxOptions{} })
	s0, err := muxes[0].Open("late", 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := s0.Send(1, 0, 1, 4, 11); err != nil {
		t.Fatal(err)
	}
	muxes[0].Close()
	deadline := time.Now().Add(5 * time.Second)
	for muxes[1].Health()[0].State != telemetry.StateDead {
		if time.Now().After(deadline) {
			t.Fatal("link death never observed")
		}
		time.Sleep(5 * time.Millisecond)
	}
	s1, err := muxes[1].Open("late", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer s1.Close()
	if v, err := s1.RecvCtx(context.Background(), 1, 0, 1); err != nil || v.(int) != 11 {
		t.Fatalf("frame sent before the link died: got %v, %v", v, err)
	}
	_, err = s1.RecvCtx(context.Background(), 1, 0, 2)
	var abort *AbortError
	if !errors.As(err, &abort) || !errors.Is(err, ErrPeerDown) || abort.Party != 0 {
		t.Fatalf("after the buffered frame: got %v, want ErrPeerDown naming party 0", err)
	}
}

// A party that reaches a broadcast after two peers left — one having
// sent its frame for the round first, one silent — still receives the
// frame and names the silent peer, the one the protocol blocks on: the
// legs to the departed peers do not fail the round early.
func TestMuxBroadcastAfterPeersLeft(t *testing.T) {
	defer leakcheck.Check(t)
	sess := tcpSessions(t, 3, nil)
	if err := sess[0].Send(1, 0, 2, 4, 10); err != nil {
		t.Fatal(err)
	}
	sess[1].Close()
	sess[0].Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		h := sess[2].Health()
		if h[0].State == telemetry.StateDead && h[1].State == telemetry.StateDead {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("peer departures never observed")
		}
		time.Sleep(5 * time.Millisecond)
	}
	_, err := EchoBroadcastCtx(context.Background(), sess[2], 2, 1, 4, 12)
	var abort *AbortError
	if !errors.As(err, &abort) || !errors.Is(err, ErrPeerDown) || abort.Party != 1 {
		t.Fatalf("got %v, want ErrPeerDown naming the silent party 1", err)
	}
}

// Closing (or abandoning) one session must not disturb another on the
// same link: session A closes mid-flight, B still completes.
func TestMuxCloseIsolation(t *testing.T) {
	defer leakcheck.Check(t)
	muxes := muxMesh(t, 3, func(int) MuxOptions { return MuxOptions{} })
	a := openAll(t, muxes, "doomed")
	b := openAll(t, muxes, "survivor")
	// A few frames in flight for A, then it dies everywhere.
	_ = a[0].Send(1, 0, 1, 4, 1)
	for _, s := range a {
		s.Close()
	}
	ringPass(t, b, 300)
	for _, s := range b {
		s.Close()
	}
	// Receives on the closed session fail with ErrClosed, typed.
	_, err := a[1].RecvCtx(context.Background(), 1, 0, 1)
	var abort *AbortError
	if !errors.As(err, &abort) || !errors.Is(err, ErrClosed) {
		t.Fatalf("closed-session recv: got %v, want AbortError/ErrClosed", err)
	}
}

// A session whose consumer stalls overflows its receive budget and is
// failed alone; the link and its sibling session keep working.
func TestMuxOverflowBudgetIsolation(t *testing.T) {
	defer leakcheck.Check(t)
	muxes := muxMesh(t, 2, func(int) MuxOptions { return MuxOptions{QueueCap: 4} })
	slow := openAll(t, muxes, "slow")
	ok := openAll(t, muxes, "ok")
	// Flood the slow session far past its 4-frame budget; nobody reads.
	for i := 0; i < 32; i++ {
		if err := slow[0].Send(1, 0, 1, 4, i); err != nil {
			t.Fatalf("flood send %d: %v", i, err)
		}
	}
	// The sibling still works both ways.
	ringPass(t, ok, 400)
	// The slow session's receives from peer 0 eventually fail typed —
	// after draining the frames that fit the budget.
	deadline := time.After(5 * time.Second)
	for {
		_, err := slow[1].RecvCtx(context.Background(), 1, 0, -1)
		if err == nil {
			select {
			case <-deadline:
				t.Fatal("overflowed session never failed")
			default:
				continue
			}
		}
		var abort *AbortError
		if !errors.As(err, &abort) {
			t.Fatalf("overflow error not typed: %v", err)
		}
		if !strings.Contains(err.Error(), "budget") {
			t.Fatalf("overflow error does not name the budget: %v", err)
		}
		break
	}
	for _, s := range append(slow, ok...) {
		s.Close()
	}
}

// Control frames bypass sessions and arrive on the control channel.
func TestMuxControlPlane(t *testing.T) {
	defer leakcheck.Check(t)
	muxes := muxMesh(t, 2, func(int) MuxOptions { return MuxOptions{} })
	if err := muxes[0].SendControl(1, 42); err != nil {
		t.Fatal(err)
	}
	select {
	case msg := <-muxes[1].Control():
		if msg.From != 0 || msg.Payload.(int) != 42 {
			t.Fatalf("control got %+v", msg)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("control frame never arrived")
	}
}

// A session id cannot be reused after close: late frames for its first
// life were dropped, so a second life would start with a hole.
func TestMuxSIDReuseRejected(t *testing.T) {
	defer leakcheck.Check(t)
	muxes := muxMesh(t, 2, func(int) MuxOptions { return MuxOptions{} })
	s, err := muxes[0].Open("once", 0)
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	if _, err := muxes[0].Open("once", 0); err == nil {
		t.Fatal("reopening a closed sid succeeded")
	}
	if _, err := muxes[0].Open("", 0); err == nil {
		t.Fatal("empty sid accepted")
	}
}

// Duplicate mesh addresses are rejected at construction with the typed
// collision error naming both parties, on every fabric constructor.
func TestMeshAddrCollision(t *testing.T) {
	defer leakcheck.Check(t)
	addrs, err := FreeLoopbackAddrs(3)
	if err != nil {
		t.Fatal(err)
	}
	addrs[2] = addrs[0]
	var collision *AddrCollisionError
	if _, err := NewTCPSession(addrs, 0, time.Second, nil); !errors.As(err, &collision) {
		t.Fatalf("NewTCPSession: got %v, want AddrCollisionError", err)
	} else if collision.Parties != [2]int{0, 2} {
		t.Fatalf("collision parties = %v, want [0 2]", collision.Parties)
	}
	if _, err := NewSessionMux(addrs, 1, time.Second, MuxOptions{}); !errors.As(err, &collision) {
		t.Fatalf("NewSessionMux: got %v, want AddrCollisionError", err)
	}
	if _, err := NewRecoveringTCPFabric(addrs, 0, time.Second, RecoverOptions{SessionID: "x"}); !errors.As(err, &collision) {
		t.Fatalf("NewRecoveringTCPFabric: got %v, want AddrCollisionError", err)
	}
	// Equivalent spellings collide too: wildcard vs explicit zero host,
	// localhost vs loopback IP.
	if err := validateMeshAddrs([]string{":9001", "0.0.0.0:9001"}); err == nil {
		t.Fatal("wildcard spellings not caught")
	}
	if err := validateMeshAddrs([]string{"localhost:9001", "127.0.0.1:9001"}); err == nil {
		t.Fatal("localhost aliasing not caught")
	}
	if err := validateMeshAddrs([]string{"hostA:9001", "hostB:9001"}); err != nil {
		t.Fatalf("distinct hosts, same port wrongly rejected: %v", err)
	}
}

// tcpSessions forms an n-party mesh of one-session endpoints.
func tcpSessions(t *testing.T, n int, regs []*telemetry.Registry) []*MuxSession {
	t.Helper()
	eps := formMesh(t, n, func(addrs []string, me int) (Net, error) {
		var reg *telemetry.Registry
		if regs != nil {
			reg = regs[me]
		}
		return NewTCPSession(addrs, me, 5*time.Second, reg)
	})
	out := make([]*MuxSession, n)
	for i, ep := range eps {
		out[i] = ep.(*MuxSession)
	}
	return out
}

func TestTCPConstructorValidation(t *testing.T) {
	defer leakcheck.Check(t)
	if _, err := NewTCPSession([]string{"127.0.0.1:0"}, 0, time.Second, nil); err == nil {
		t.Error("single party accepted")
	}
	if _, err := NewTCPSession([]string{"a", "b"}, 5, time.Second, nil); err == nil {
		t.Error("out-of-range index accepted")
	}
}

func TestTCPMeshSendRecv(t *testing.T) {
	defer leakcheck.Check(t)
	sess := tcpSessions(t, 3, nil)
	if err := sess[0].Send(1, 0, 2, 16, wirePayload{From: 0, Text: "hello"}); err != nil {
		t.Fatal(err)
	}
	got, err := sess[2].Recv(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	p, ok := got.(wirePayload)
	if !ok || p.Text != "hello" {
		t.Fatalf("got %#v", got)
	}
}

func TestTCPOrderingPerSender(t *testing.T) {
	defer leakcheck.Check(t)
	sess := tcpSessions(t, 2, nil)
	for i := 0; i < 50; i++ {
		if err := sess[0].Send(0, 0, 1, 4, wirePayload{From: i}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 50; i++ {
		got, err := sess[1].Recv(1, 0)
		if err != nil {
			t.Fatal(err)
		}
		if got.(wirePayload).From != i {
			t.Fatalf("message %d out of order", i)
		}
	}
}

// A real endpoint speaks only for its own party.
func TestTCPEndpointRestrictions(t *testing.T) {
	defer leakcheck.Check(t)
	sess := tcpSessions(t, 2, nil)
	if err := sess[0].Send(0, 1, 0, 0, wirePayload{}); err == nil {
		t.Error("sending as another party accepted")
	}
	if _, err := sess[0].Recv(1, 0); err == nil {
		t.Error("receiving as another party accepted")
	}
	if err := sess[0].Send(0, 0, 0, 0, wirePayload{}); err == nil {
		t.Error("self send accepted")
	}
}

func TestFreeLoopbackAddrs(t *testing.T) {
	addrs, err := FreeLoopbackAddrs(4)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, a := range addrs {
		if seen[a] {
			t.Fatalf("duplicate address %s", a)
		}
		seen[a] = true
		if a == "" {
			t.Fatal("empty address")
		}
	}
}

// A daemon that sends its broadcast legs different payloads over mux
// sessions is caught by the echo sub-round: every honest party aborts
// with an *EquivocationError naming it.
func TestMuxEchoCatchesEquivocator(t *testing.T) {
	defer leakcheck.Check(t)
	const n, cheat, round = 3, 0, 4
	sess := tcpSessions(t, n, nil)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var nt Net = sess[i]
			if i == cheat {
				// Substitutes the payload on some legs; its own echo still
				// claims the original.
				nt = NewFaultNet(sess[i], FaultPlan{Seed: 1, Rules: []FaultRule{{Kind: FaultEquivocate, Round: round, From: cheat, To: -1}}})
			}
			_, errs[i] = EchoBroadcastCtx(context.Background(), nt, i, round, 8, fmt.Sprintf("payload of %d", i))
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if i == cheat {
			continue
		}
		var eq *EquivocationError
		if !errors.As(err, &eq) {
			t.Fatalf("honest party %d: got %v, want an *EquivocationError", i, err)
		}
		if abort, _ := IsAbort(err); eq.Sender != cheat || abort.Party != cheat {
			t.Fatalf("honest party %d accused party %d (abort names %d), want %d", i, eq.Sender, abort.Party, cheat)
		}
	}
}

// A one-session endpoint feeds the transport_* endpoint series from
// mesh formation on: its formation dials count as redials, and protocol
// and echo traffic land in separate counters.
func TestTCPSessionTelemetry(t *testing.T) {
	defer leakcheck.Check(t)
	regs := []*telemetry.Registry{telemetry.NewRegistry(), telemetry.NewRegistry()}
	sess := tcpSessions(t, 2, regs)
	if err := sess[1].Send(1, 1, 0, 10, wirePayload{}); err != nil {
		t.Fatal(err)
	}
	if err := sess[1].Send(EchoRound(1), 1, 0, 64, echoMsg{}); err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := regs[1].WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	dump := buf.String()
	for _, want := range []string{
		"transport_msgs_total 1\n",
		"transport_bytes_total 10\n",
		"transport_echo_msgs_total 1\n",
		"transport_echo_bytes_total 64\n",
		"transport_rounds_total 1\n",
		"mux_session_msgs_total 1\n",
	} {
		if !strings.Contains(dump, want) {
			t.Errorf("metrics missing %q:\n%s", want, dump)
		}
	}
	// Party 1 dialed party 0 at least once during formation.
	if !strings.Contains(dump, `transport_redials_total{peer="0"} `) || strings.Contains(dump, `transport_redials_total{peer="0"} 0`) {
		t.Errorf("formation dials not counted:\n%s", dump)
	}
}
