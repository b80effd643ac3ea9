package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"groupranking"
	"groupranking/internal/transport"
)

// Service load shape. The open loop sends 3 sessions/s on a fixed
// schedule, whether or not earlier sessions have finished: one every
// 333 ms against a service time near 200 ms on a 2-CPU host, so
// sessions mostly run alone and queueing shows only when the mesh
// slows down. Seeded Poisson arrivals at 2/s put about half the
// sessions on top of another, and with the fifty-odd sessions a run
// allows, the median then lands between the two modes and moves by
// twice as much from run to run. The closed loop keeps 8 sessions in
// flight to measure capacity.
const (
	openPeriod    = time.Second / 3
	openShare     = 0.6 // of --seconds; the closed loop gets the rest
	closedWorkers = 8
	pollInterval  = 10 * time.Millisecond
	serviceSetups = 3
	serviceGroup  = "toy-dl-256"
)

// buildRankd compiles cmd/rankd from the tree under test into dir.
func buildRankd(ctx context.Context, dir string) (string, error) {
	bin := filepath.Join(dir, "rankd")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "groupranking/cmd/rankd")
	cmd.Dir = "rankbench"
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building rankd: %v\n%s", err, out)
	}
	return bin, nil
}

// pollCounter counts result polls sent through one HTTP client.
type pollCounter struct {
	next  http.RoundTripper
	polls atomic.Int64
}

func (p *pollCounter) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Method == http.MethodGet && strings.HasSuffix(req.URL.Path, "/result") {
		p.polls.Add(1)
	}
	return p.next.RoundTrip(req)
}

// mesh is one four-daemon rankd deployment on free loopback ports.
type mesh struct {
	cmds    []*exec.Cmd
	logs    []string
	admins  []string
	clients []*groupranking.Client
	hcs     []*http.Client
	polls   *pollCounter // daemon 0's result polls
	launch  time.Time
	upAfter time.Duration // launch until every API answered
}

// startMesh launches the daemons and waits for every session API; a
// daemon serves its API only once it has joined the mesh.
func startMesh(ctx context.Context, bin, dir string, durable, admin bool) (*mesh, error) {
	addrs, err := transport.FreeLoopbackAddrs(3 * (participants + 1))
	if err != nil {
		return nil, err
	}
	n := participants + 1
	meshAddrs, apis, admins := addrs[:n], addrs[n:2*n], addrs[2*n:]
	m := &mesh{launch: time.Now()}
	for me := 0; me < n; me++ {
		args := []string{"-addrs", strings.Join(meshAddrs, ","), "-me", fmt.Sprint(me), "-api", apis[me]}
		if admin {
			args = append(args, "-admin", admins[me])
			m.admins = append(m.admins, "http://"+admins[me])
		}
		if durable {
			jdir, err := os.MkdirTemp(dir, fmt.Sprintf("journal-%d-", me))
			if err != nil {
				m.stop()
				return nil, err
			}
			args = append(args, "-journal", jdir)
		}
		logf, err := os.CreateTemp(dir, fmt.Sprintf("rankd-%d-*.log", me))
		if err != nil {
			m.stop()
			return nil, err
		}
		cmd := exec.Command(bin, args...)
		cmd.Stdout, cmd.Stderr = logf, logf
		// The daemons die with the benchmark even if it is killed.
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		err = cmd.Start()
		logf.Close()
		if err != nil {
			m.stop()
			return nil, fmt.Errorf("starting daemon %d: %w", me, err)
		}
		m.cmds = append(m.cmds, cmd)
		m.logs = append(m.logs, logf.Name())

		// At most nproc connections per daemon, as one load-generating
		// host with nproc threads would hold.
		var rt http.RoundTripper = &http.Transport{MaxConnsPerHost: runtime.NumCPU(), MaxIdleConnsPerHost: runtime.NumCPU()}
		if me == 0 {
			m.polls = &pollCounter{next: rt}
			rt = m.polls
		}
		hc := &http.Client{Transport: rt, Timeout: 30 * time.Second}
		m.hcs = append(m.hcs, hc)
		m.clients = append(m.clients, groupranking.NewClient("http://"+apis[me], hc).WithRetry(groupranking.RetryPolicy{MaxAttempts: 8}))
	}
	for me, c := range m.clients {
		if err := awaitAPI(ctx, c); err != nil {
			err = fmt.Errorf("daemon %d: %w\n%s", me, err, m.logTail(me))
			m.stop()
			return nil, err
		}
	}
	m.upAfter = time.Since(m.launch)
	return m, nil
}

func awaitAPI(ctx context.Context, c *groupranking.Client) error {
	ctx, cancel := context.WithTimeout(ctx, 60*time.Second)
	defer cancel()
	for {
		if _, err := c.Sessions(ctx); err == nil {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("session API never came up: %w", ctx.Err())
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// stop kills every daemon and waits for each to exit.
func (m *mesh) stop() {
	for _, c := range m.cmds {
		_ = c.Process.Kill() // an already-exited daemon is fine
	}
	for _, c := range m.cmds {
		_ = c.Wait() // killed: the exit status is always an error
	}
	for _, hc := range m.hcs {
		hc.CloseIdleConnections()
	}
}

func (m *mesh) logTail(me int) string {
	raw, _ := os.ReadFile(m.logs[me]) // diagnostics only
	if len(raw) > 2000 {
		raw = raw[len(raw)-2000:]
	}
	return string(raw)
}

// cpu sums the daemons' CPU time.
func (m *mesh) cpu() (time.Duration, error) {
	var total time.Duration
	for _, c := range m.cmds {
		d, err := procCPU(c.Process.Pid)
		if err != nil {
			return 0, err
		}
		total += d
	}
	return total, nil
}

// peakRSS sums the daemons' peak resident memory.
func (m *mesh) peakRSS() (float64, error) {
	total := 0.0
	for _, c := range m.cmds {
		v, err := peakRSSMB(c.Process.Pid)
		if err != nil {
			return 0, err
		}
		total += v
	}
	return total, nil
}

// scrape sums one metric family over every daemon's /metrics.
func (m *mesh) scrape(ctx context.Context, names ...string) (map[string]float64, []string, error) {
	out := map[string]float64{}
	var texts []string
	for _, base := range m.admins {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
		if err != nil {
			return nil, nil, err
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return nil, nil, fmt.Errorf("scraping %s/metrics: %w", base, err)
		}
		raw, err := io.ReadAll(io.LimitReader(resp.Body, 1<<22))
		resp.Body.Close()
		if err != nil {
			return nil, nil, err
		}
		texts = append(texts, string(raw))
		for _, name := range names {
			out[name] += sumMetric(string(raw), name)
		}
	}
	return out, texts, nil
}

// session is one driven service session's measurement.
type session struct {
	latency              time.Duration // scheduled send to the result at daemon 0
	create, submit, wait time.Duration
	runMS                float64 // ResultResponse.ElapsedMS at daemon 0
	bytes                int64   // sent by all four daemons
	rounds               int
	doneAt               time.Time
	err, bad             error
}

// drive runs one session through the public client: create at the
// initiator daemon, each participant's profile to its own daemon, and
// poll daemon 0 until done; then read every participant's rank and
// traffic from its daemon and verify ranks and top-k submissions.
func (m *mesh) drive(ctx context.Context, q *groupranking.Questionnaire, r ranking, due time.Time) (s session) {
	ctx, cancel := context.WithTimeout(ctx, rankingTimeout)
	defer cancel()
	spec := groupranking.SessionSpec{
		Attributes: []groupranking.ClientAttribute{
			{Name: "age", Kind: groupranking.AttrEqualTo},
			{Name: "activity", Kind: groupranking.AttrGreaterThan},
		},
		Criterion: groupranking.ClientCriterion{Values: criterion.Values, Weights: criterion.Weights},
		K:         topK, D1: specD1, D2: specD2, H: specH,
		GroupName: serviceGroup,
		Seed:      r.seed,
	}
	t0 := time.Now()
	id, err := m.clients[0].CreateSession(ctx, spec)
	if err != nil {
		s.err = fmt.Errorf("create: %w", err)
		return s
	}
	t1 := time.Now()
	for j := 1; j <= participants; j++ {
		if err := m.clients[j].Submit(ctx, id, r.profiles[j-1].Values); err != nil {
			s.err = fmt.Errorf("submit to daemon %d: %w", j, err)
			return s
		}
	}
	t2 := time.Now()
	res, err := m.clients[0].WaitResult(ctx, id, pollInterval)
	if err == nil && res.State != groupranking.SessionDone {
		err = fmt.Errorf("session ended %s: %s", res.State, res.Error)
	}
	if err != nil {
		s.err = fmt.Errorf("result: %w", err)
		return s
	}
	s.doneAt = time.Now()
	s.latency, s.create, s.submit, s.wait = s.doneAt.Sub(due), t1.Sub(t0), t2.Sub(t1), s.doneAt.Sub(t2)
	s.runMS, s.bytes, s.rounds = float64(res.ElapsedMS), res.BytesOnWire, res.Rounds
	ranks := make([]int, participants)
	for j := 1; j <= participants; j++ {
		pr, err := m.clients[j].WaitResult(ctx, id, pollInterval)
		if err == nil && pr.State != groupranking.SessionDone {
			err = fmt.Errorf("session ended %s: %s", pr.State, pr.Error)
		}
		if err != nil {
			s.err = fmt.Errorf("result at daemon %d: %w", j, err)
			return s
		}
		ranks[j-1] = pr.Rank
		s.bytes += pr.BytesOnWire
		s.rounds = max(s.rounds, pr.Rounds)
	}
	subs := make([]submission, len(res.Submissions))
	for i, sub := range res.Submissions {
		subs[i] = submission{participant: sub.Participant, claimedRank: sub.ClaimedRank, values: sub.Values}
	}
	if s.bad = verifyRanks(r, ranks); s.bad == nil {
		s.bad = verifyTopK(r, subs, ranks)
	}
	return s
}

// loadGen hands out rankings in order; the seeded generator is not
// safe for concurrent use.
type loadGen struct {
	mu   sync.Mutex
	in   *inputs
	next int
}

func (g *loadGen) take() (ranking, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	r, err := g.in.next(g.next)
	g.next++
	return r, err
}

// openLoop sends a session every openPeriod for dur, whether or not
// earlier ones have finished. It returns the sessions and how late the
// generator ran for each, in ms.
func (m *mesh) openLoop(ctx context.Context, g *loadGen, dur time.Duration) ([]session, []float64, error) {
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		out  []session
		lags []float64
	)
	start := time.Now()
	for due := start; due.Sub(start) < dur; due = due.Add(openPeriod) {
		select {
		case <-ctx.Done():
			wg.Wait()
			return nil, nil, ctx.Err()
		case <-time.After(time.Until(due)):
		}
		lags = append(lags, ms(time.Since(due)))
		r, err := g.take()
		if err != nil {
			wg.Wait()
			return nil, nil, err
		}
		wg.Add(1)
		go func(r ranking, due time.Time) {
			defer wg.Done()
			s := m.drive(ctx, g.in.q, r, due)
			mu.Lock()
			out = append(out, s)
			mu.Unlock()
		}(r, due)
	}
	wg.Wait()
	return out, lags, nil
}

// closedLoop keeps closedWorkers sessions in flight for dur and
// returns every session, including those that finish after dur.
func (m *mesh) closedLoop(ctx context.Context, g *loadGen, dur time.Duration) ([]session, error) {
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		out      []session
		firstErr error
	)
	deadline := time.Now().Add(dur)
	for w := 0; w < closedWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) && ctx.Err() == nil {
				r, err := g.take()
				if err != nil {
					mu.Lock()
					firstErr = err
					mu.Unlock()
					return
				}
				s := m.drive(ctx, g.in.q, r, time.Now())
				mu.Lock()
				out = append(out, s)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if firstErr == nil {
		firstErr = ctx.Err()
	}
	return out, firstErr
}

// setUpMesh launches a mesh and drives its first session: the
// workload's set-up, timed from daemon launch to the first verified
// ranking.
func setUpMesh(ctx context.Context, bin, dir string, durable, admin bool, g *loadGen, t *tally) (*mesh, time.Duration, error) {
	m, err := startMesh(ctx, bin, dir, durable, admin)
	if err != nil {
		return nil, 0, err
	}
	r, err := g.take()
	if err != nil {
		m.stop()
		return nil, 0, err
	}
	s := m.drive(ctx, g.in.q, r, time.Now())
	t.record(s.err, s.bad)
	if s.err != nil || s.bad != nil {
		err := fmt.Errorf("first session: %w\n%s", errors.Join(s.err, s.bad), m.logTail(0))
		m.stop()
		return nil, 0, err
	}
	return m, s.doneAt.Sub(m.launch), nil
}

func runService(ctx context.Context, cfg config, durable bool) (*outcome, error) {
	bin, err := buildRankd(ctx, cfg.tmp)
	if err != nil {
		return nil, err
	}
	in, err := newInputs(cfg.seed)
	if err != nil {
		return nil, err
	}
	g := &loadGen{in: in}
	out := &outcome{metrics: map[string]float64{}}
	if cfg.trace {
		return runServiceTraced(ctx, cfg, bin, durable, g, out)
	}

	setups := serviceSetups
	if cfg.short {
		setups = 1
	}
	var (
		m     *mesh
		times []float64
	)
	for i := 0; i < setups; i++ {
		if m != nil {
			m.stop()
		}
		var d time.Duration
		if m, d, err = setUpMesh(ctx, bin, cfg.tmp, durable, false, g, &out.tally); err != nil {
			return nil, err
		}
		times = append(times, d.Seconds())
	}
	defer m.stop()

	cpu0, err := m.cpu()
	if err != nil {
		return nil, err
	}
	open, _, err := m.openLoop(ctx, g, time.Duration(cfg.seconds*openShare*float64(time.Second)))
	if err != nil {
		return nil, err
	}
	closedStart := time.Now()
	closedDur := time.Duration(cfg.seconds * (1 - openShare) * float64(time.Second))
	closed, err := m.closedLoop(ctx, g, closedDur)
	if err != nil {
		return nil, err
	}
	cpu1, err := m.cpu()
	if err != nil {
		return nil, err
	}
	rss, err := m.peakRSS()
	if err != nil {
		return nil, err
	}

	var lat, wire []float64
	var done []time.Time // closed-loop completions within the window
	for i, s := range append(open, closed...) {
		out.record(s.err, s.bad)
		ok := s.err == nil && s.bad == nil
		if i < len(open) {
			if ok {
				lat = append(lat, ms(s.latency))
			} else {
				lat = append(lat, ms(rankingTimeout))
			}
		} else if ok && s.doneAt.Sub(closedStart) <= closedDur {
			done = append(done, s.doneAt)
		}
		if ok {
			wire = append(wire, float64(s.bytes))
		}
	}
	if len(wire) == 0 || len(done) < 2 {
		return nil, errors.New("too few sessions verified in the measured phase")
	}
	// Completions per second between the window's first and last
	// completion, which a whole-window count would quantise.
	slices.SortFunc(done, func(a, b time.Time) int { return a.Compare(b) })
	span := done[len(done)-1].Sub(done[0])
	out.metrics["setup_s"] = median(times)
	out.metrics["rankings_per_s"] = float64(len(done)-1) / span.Seconds()
	out.metrics["latency_p50_ms"] = quantile(lat, 0.5)
	out.metrics["latency_p90_ms"] = quantile(lat, 0.9)
	out.metrics["cpu_ms_per_ranking"] = ms(cpu1-cpu0) / float64(len(wire))
	out.metrics["wire_bytes_per_ranking"] = mean(wire)
	out.metrics["peak_rss_mb"] = rss
	return out, nil
}

// runServiceTraced drives the open loop twice, on a plain mesh and on
// one with -admin telemetry, half the measured time each. The second
// gives the per-layer metrics, the pair of latency medians the tracing
// overhead.
func runServiceTraced(ctx context.Context, cfg config, bin string, durable bool, g *loadGen, out *outcome) (*outcome, error) {
	half := time.Duration(cfg.seconds / 2 * float64(time.Second))
	plain, _, err := setUpMesh(ctx, bin, cfg.tmp, durable, false, g, &out.tally)
	if err != nil {
		return nil, err
	}
	plainSessions, _, err := plain.openLoop(ctx, g, half)
	plain.stop()
	if err != nil {
		return nil, err
	}

	m, _, err := setUpMesh(ctx, bin, cfg.tmp, durable, true, g, &out.tally)
	if err != nil {
		return nil, err
	}
	defer m.stop()
	polls0 := m.polls.polls.Load()
	cpu0, err := m.cpu()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	sessions, lags, err := m.openLoop(ctx, g, half)
	if err != nil {
		return nil, err
	}
	wall := time.Since(start)
	cpu1, err := m.cpu()
	if err != nil {
		return nil, err
	}
	polls := m.polls.polls.Load() - polls0
	counters, texts, err := m.scrape(ctx,
		"mux_data_frames_total", "mux_control_frames_total", "mux_session_msgs_total",
		"mux_late_frames_total", "mux_pending_dropped_total", "mux_link_connects_total",
		"service_admission_rejects_total",
		"journal_appends_total", "journal_bytes_total", "transport_redials_total")
	if err != nil {
		return nil, err
	}
	if err := checkOneLinkPerPeer(texts); err != nil {
		return nil, err
	}

	var plainLat, lat, create, submit, wait, run, overhead, rounds []float64
	for _, s := range plainSessions {
		out.record(s.err, s.bad)
		if s.err == nil && s.bad == nil {
			plainLat = append(plainLat, ms(s.latency))
		}
	}
	for _, s := range sessions {
		out.record(s.err, s.bad)
		if s.err != nil || s.bad != nil {
			continue
		}
		lat = append(lat, ms(s.latency))
		create = append(create, ms(s.create))
		submit = append(submit, ms(s.submit))
		wait = append(wait, ms(s.wait))
		run = append(run, s.runMS)
		overhead = append(overhead, ms(s.latency)-s.runMS)
		rounds = append(rounds, float64(s.rounds))
	}
	if len(lat) == 0 || len(plainLat) == 0 {
		return nil, errors.New("no verified sessions to compare traced and untraced")
	}
	layers, err := layerMetrics(serviceGroup, cfg.seed, cfg.tmp)
	if err != nil {
		return nil, err
	}
	fillZero(out.metrics)
	for k, v := range layers {
		out.metrics[k] = v
	}
	// Every session the traced mesh hosted, its set-up session
	// included, feeds the daemons' counters.
	hosted := float64(1 + len(sessions))
	peers := float64((participants + 1) * participants)
	m2 := out.metrics
	m2["transport.msgs_per_ranking"] = counters["mux_session_msgs_total"] / hosted
	m2["transport.rounds_per_ranking"] = mean(rounds)
	m2["transport.mux_data_frames_per_ranking"] = counters["mux_data_frames_total"] / hosted
	m2["transport.mux_control_frames_per_ranking"] = counters["mux_control_frames_total"] / hosted
	m2["transport.mux_late_frames"] = counters["mux_late_frames_total"]
	m2["transport.mux_pending_drops"] = counters["mux_pending_dropped_total"]
	m2["transport.mux_link_connects_per_peer"] = counters["mux_link_connects_total"] / peers
	m2["transport.mesh_setup_ms"] = ms(m.upAfter)
	m2["transport.redials_per_ranking"] = counters["transport_redials_total"] / hosted
	m2["journal.appends_per_ranking"] = counters["journal_appends_total"] / hosted
	m2["journal.bytes_per_ranking"] = counters["journal_bytes_total"] / hosted
	m2["service.create_ms"] = median(create)
	m2["service.submit_ms"] = median(submit)
	m2["service.result_wait_ms"] = median(wait)
	m2["service.run_ms"] = median(run)
	m2["service.overhead_ms"] = median(overhead)
	m2["service.polls_per_ranking"] = float64(polls) / float64(len(sessions))
	m2["service.admission_rejects"] = counters["service_admission_rejects_total"]
	m2["kernel.cpu_util"] = (cpu1 - cpu0).Seconds() / (wall.Seconds() * float64(runtime.NumCPU()))
	m2["obsv.overhead_frac"] = median(lat)/median(plainLat) - 1
	m2["loadgen.lag_p90_ms"] = quantile(lags, 0.9)
	return out, nil
}

// checkOneLinkPerPeer asserts that every daemon dialed or accepted
// each peer exactly once over the whole run: all sessions share one
// mux connection per peer pair.
func checkOneLinkPerPeer(texts []string) error {
	for me, text := range texts {
		links := 0
		for _, line := range strings.Split(text, "\n") {
			if !strings.HasPrefix(line, "mux_link_connects_total{") {
				continue
			}
			links++
			if !strings.HasSuffix(line, " 1") {
				return fmt.Errorf("daemon %d: %s, want one connection per peer", me, line)
			}
		}
		if links != participants {
			return fmt.Errorf("daemon %d reports mux_link_connects_total for %d peers, want %d", me, links, participants)
		}
	}
	return nil
}
