package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"groupranking"
	"groupranking/internal/obsv"
	"groupranking/internal/transport"
)

// rankingTimeout bounds one ranking; a failed ranking enters the
// latency percentiles at this value, missing any limit.
const rankingTimeout = 2 * time.Minute

// rankStats is what one in-process ranking reports.
type rankStats struct {
	wall    time.Duration
	bytes   int64
	rounds  int
	spans   []obsv.SpanSnapshot // traced rankings only
	redials float64             // traced party-tcp rankings only
}

// ranker runs one ranking through a public entry point. err is a
// failure to produce a ranking; bad a ranking that disagrees with the
// ground truth.
type ranker func(ctx context.Context, q *groupranking.Questionnaire, r ranking, traced bool) (st rankStats, err, bad error)

func baseOptions(groupName string, r ranking) groupranking.Options {
	return groupranking.Options{
		GroupName: groupName,
		K:         topK, D1: specD1, D2: specD2, H: specH,
		Sorter:  groupranking.Unlinkable,
		Seed:    r.seed,
		Runtime: groupranking.Runtime{Timeout: rankingTimeout},
	}
}

// rankInproc is inproc-ecc's ranking: groupranking.Rank on secp160r1,
// every party a goroutine over the in-memory fabric.
func rankInproc(ctx context.Context, q *groupranking.Questionnaire, r ranking, traced bool) (rankStats, error, error) {
	opts := baseOptions("secp160r1", r)
	if traced {
		opts.Observer = groupranking.NewObserver()
	}
	start := time.Now()
	res, err := groupranking.Rank(ctx, q, criterion, r.profiles, opts)
	st := rankStats{wall: time.Since(start)}
	if err != nil {
		return st, err, nil
	}
	st.bytes, st.rounds = res.BytesOnWire, res.Rounds
	if traced {
		st.spans = opts.Observer.Spans()
	}
	bad := verifyRanks(r, res.Ranks)
	if bad == nil {
		bad = verifyTopK(r, coreSubmissions(res.Submissions), res.Ranks)
	}
	return st, nil, bad
}

// rankParty is party-tcp's ranking: RankInitiatorParty and three
// RankParticipantParty goroutines meshed over fresh loopback ports.
func rankParty(ctx context.Context, q *groupranking.Questionnaire, r ranking, traced bool) (rankStats, error, error) {
	addrs, err := transport.FreeLoopbackAddrs(participants + 1)
	if err != nil {
		return rankStats{}, err, nil
	}
	opts := make([]groupranking.Options, participants+1)
	for i := range opts {
		opts[i] = baseOptions("toy-dl-256", r)
		if traced {
			opts[i].Observer = groupranking.NewObserver()
			opts[i].Telemetry = groupranking.NewTelemetry()
		}
	}
	var (
		wg    sync.WaitGroup
		ires  *groupranking.InitiatorResult
		pres  = make([]*groupranking.ParticipantResult, participants+1)
		errs  = make([]error, participants+1)
		start = time.Now()
	)
	wg.Add(participants + 1)
	go func() {
		defer wg.Done()
		ires, errs[0] = groupranking.RankInitiatorParty(ctx, q, criterion, addrs, opts[0])
	}()
	for me := 1; me <= participants; me++ {
		go func(me int) {
			defer wg.Done()
			pres[me], errs[me] = groupranking.RankParticipantParty(ctx, q, addrs, me, r.profiles[me-1], opts[me])
		}(me)
	}
	wg.Wait()
	st := rankStats{wall: time.Since(start)}
	if err := errors.Join(errs...); err != nil {
		return st, err, nil
	}
	st.bytes, st.rounds = ires.BytesOnWire, ires.Rounds
	ranks := make([]int, participants)
	for me := 1; me <= participants; me++ {
		st.bytes += pres[me].BytesOnWire
		st.rounds = max(st.rounds, pres[me].Rounds)
		ranks[me-1] = pres[me].Rank
	}
	if traced {
		for _, o := range opts {
			st.spans = append(st.spans, o.Observer.Spans()...)
			var buf bytes.Buffer
			if err := o.Telemetry.WritePrometheus(&buf); err != nil {
				return st, err, nil
			}
			st.redials += sumMetric(buf.String(), "transport_redials_total")
		}
	}
	bad := verifyRanks(r, ranks)
	if bad == nil {
		bad = verifyTopK(r, coreSubmissions(ires.Submissions), ranks)
	}
	return st, nil, bad
}

// inprocWorkload describes a closed-loop workload run inside the
// benchmark process, one ranking at a time.
type inprocWorkload struct {
	group  string
	rank   ranker
	setups int // cold set-ups timed for setup_s: this process plus setups−1 fresh ones
}

var (
	inprocECC = inprocWorkload{group: "secp160r1", rank: rankInproc, setups: 3}
	partyTCP  = inprocWorkload{group: "toy-dl-256", rank: rankParty, setups: 3}
)

// setUp times this process's set-up: from the workload's start to its
// first verified ranking, which also warms every lazy table.
func (w inprocWorkload) setUp(ctx context.Context, cfg config) (*inputs, time.Duration, error) {
	start := time.Now()
	in, err := newInputs(cfg.seed)
	if err != nil {
		return nil, 0, err
	}
	r, err := in.next(0)
	if err != nil {
		return nil, 0, err
	}
	if _, err, bad := w.rank(ctx, in.q, r, false); err != nil || bad != nil {
		return nil, 0, fmt.Errorf("first ranking: %w", errors.Join(err, bad))
	}
	return in, time.Since(start), nil
}

// probeSetup is the --setup-probe child's work.
func probeSetup(ctx context.Context, cfg config) (time.Duration, error) {
	w, ok := map[string]inprocWorkload{"inproc-ecc": inprocECC, "party-tcp": partyTCP}[cfg.workload]
	if !ok {
		return 0, fmt.Errorf("no in-process set-up for %s", cfg.workload)
	}
	_, d, err := w.setUp(ctx, cfg)
	return d, err
}

// coldSetups times n set-ups, each in a fresh benchmark process.
func coldSetups(ctx context.Context, cfg config, n int) ([]float64, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var out []float64
	for i := 0; i < n; i++ {
		cmd := exec.CommandContext(ctx, self, "--setup-probe", "--workload", cfg.workload, "--seed", strconv.FormatUint(cfg.seed, 10))
		cmd.Stderr = os.Stderr
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		raw, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("set-up probe: %w", err)
		}
		fields := strings.Fields(string(raw))
		if len(fields) == 0 {
			return nil, errors.New("set-up probe printed nothing")
		}
		v, err := strconv.ParseFloat(fields[len(fields)-1], 64)
		if err != nil {
			return nil, fmt.Errorf("set-up probe: %w", err)
		}
		out = append(out, v)
	}
	return out, nil
}

func (w inprocWorkload) run(ctx context.Context, cfg config) (*outcome, error) {
	in, setup, err := w.setUp(ctx, cfg)
	if err != nil {
		return nil, err
	}
	out := &outcome{metrics: map[string]float64{}}
	out.record(nil, nil)
	if cfg.trace {
		return w.runTraced(ctx, cfg, in, out)
	}
	setups := []float64{setup.Seconds()}
	if n := w.setups - 1; n > 0 && !cfg.short {
		more, err := coldSetups(ctx, cfg, n)
		if err != nil {
			return nil, err
		}
		setups = append(setups, more...)
	}

	var lat, wire []float64
	cpu0, start := selfCPU(), time.Now()
	for i := 1; time.Since(start).Seconds() < cfg.seconds && ctx.Err() == nil; i++ {
		r, err := in.next(i)
		if err != nil {
			return nil, err
		}
		st, err, bad := w.rank(ctx, in.q, r, false)
		out.record(err, bad)
		if err != nil || bad != nil {
			lat = append(lat, ms(rankingTimeout))
			continue
		}
		lat = append(lat, ms(st.wall))
		wire = append(wire, float64(st.bytes))
	}
	wall, cpu := time.Since(start), selfCPU()-cpu0
	verified := float64(len(wire))
	if verified == 0 {
		return nil, errors.New("no ranking verified in the measured phase")
	}
	rss, err := peakRSSMB(0)
	if err != nil {
		return nil, err
	}
	out.metrics["setup_s"] = median(setups)
	out.metrics["rankings_per_s"] = verified / wall.Seconds()
	out.metrics["latency_p50_ms"] = quantile(lat, 0.5)
	out.metrics["latency_p90_ms"] = quantile(lat, 0.9)
	out.metrics["cpu_ms_per_ranking"] = ms(cpu) / verified
	out.metrics["wire_bytes_per_ranking"] = mean(wire)
	out.metrics["peak_rss_mb"] = rss
	return out, nil
}

// runTraced alternates untraced and traced rankings for the measured
// phase: the traced ones give the span metrics, the pair of medians
// the tracing overhead. The layer timings follow.
func (w inprocWorkload) runTraced(ctx context.Context, cfg config, in *inputs, out *outcome) (*outcome, error) {
	var (
		plain, traced []float64
		agg           spanAgg
		rounds        []float64
		redials       float64
	)
	cpu0, start := selfCPU(), time.Now()
	for i := 1; (time.Since(start).Seconds() < cfg.seconds || len(traced) == 0) && ctx.Err() == nil; i++ {
		r, err := in.next(i)
		if err != nil {
			return nil, err
		}
		on := i%2 == 0
		st, err, bad := w.rank(ctx, in.q, r, on)
		out.record(err, bad)
		if err != nil || bad != nil {
			continue
		}
		if !on {
			plain = append(plain, ms(st.wall))
			continue
		}
		traced = append(traced, ms(st.wall))
		agg.add(st.spans)
		rounds = append(rounds, float64(st.rounds))
		redials += st.redials
	}
	wall, cpu := time.Since(start), selfCPU()-cpu0
	if len(traced) == 0 || len(plain) == 0 {
		return nil, errors.New("no verified traced and untraced rankings to compare")
	}
	layers, err := layerMetrics(w.group, cfg.seed, cfg.tmp)
	if err != nil {
		return nil, err
	}
	fillZero(out.metrics)
	for k, v := range layers {
		out.metrics[k] = v
	}
	agg.report(out.metrics, layers["group.exp_var_us"])
	out.metrics["transport.rounds_per_ranking"] = mean(rounds)
	out.metrics["transport.redials_per_ranking"] = redials / float64(len(traced))
	out.metrics["kernel.cpu_util"] = cpu.Seconds() / (wall.Seconds() * float64(runtime.GOMAXPROCS(0)))
	out.metrics["obsv.overhead_frac"] = median(traced)/median(plain) - 1
	return out, nil
}

// fillZero sets every per-layer metric to 0 — a layer the workload does
// not exercise — before the measured ones overwrite theirs.
func fillZero(m map[string]float64) {
	for _, d := range perLayer {
		m[d.name] = 0
	}
}
