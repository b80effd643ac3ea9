// Command rankbench is the repository benchmark. It drives ranking
// workloads through the public entry points — groupranking.Rank, the
// rankd daemons through groupranking.Client, and RankInitiatorParty
// with RankParticipantParty over TCP — checks every ranking against the
// plaintext ground truth, and prints one JSON result line:
//
//	bash rankbench/run.sh --workload inproc-ecc --seed 1 --seconds 20 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 reports the
// per-layer metrics of a separate traced run. --workload all runs every
// workload in turn and prints each metric by name with its unit, and
// --short turns any run into a quick check that every metric of
// BENCHMARK.json is reported with its unit and that no ranking failed.
// README.md defines each workload and metric.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
)

type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, reported by an
// untraced run of every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"rankings_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"cpu_ms_per_ranking", "ms"},
	{"wire_bytes_per_ranking", "B"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the traced run's metrics. A layer a workload does not
// exercise reports 0 (README.md lists which layers each one runs).
var perLayer = []metricDef{
	{"host.calib_bigexp_us", "us"},
	{"group.exp_var_us", "us"},
	{"group.exp_fixed_us", "us"},
	{"group.op_us", "us"},
	{"group.decode_validate_us", "us"},
	{"elgamal.scalar_mul_us", "us"},
	{"elgamal.partial_decrypt_us", "us"},
	{"elgamal.encrypt_exp_us", "us"},
	{"elgamal.rerandomize_us", "us"},
	{"zkp.prove_us", "us"},
	{"zkp.verify_us", "us"},
	{"dotprod.field_muls_per_ranking", "count"},
	{"core.session_ms", "ms"},
	{"core.gain_ms", "ms"},
	{"unlinksort.keygen_ms", "ms"},
	{"unlinksort.key-proof_ms", "ms"},
	{"unlinksort.publish-bits_ms", "ms"},
	{"unlinksort.compare_ms", "ms"},
	{"unlinksort.chain_ms", "ms"},
	{"unlinksort.final-set_ms", "ms"},
	{"core.submission_ms", "ms"},
	{"core.exps_per_ranking", "count"},
	{"core.decs_per_ranking", "count"},
	{"unlinksort.chain_explained_frac", "frac"},
	{"unlinksort.final-set_explained_frac", "frac"},
	{"kernel.cpu_util", "frac"},
	{"transport.msgs_per_ranking", "count"},
	{"transport.rounds_per_ranking", "count"},
	{"transport.mux_data_frames_per_ranking", "count"},
	{"transport.mux_control_frames_per_ranking", "count"},
	{"transport.mux_late_frames", "count"},
	{"transport.mux_pending_drops", "count"},
	{"transport.mux_link_connects_per_peer", "count"},
	{"transport.mesh_setup_ms", "ms"},
	{"transport.redials_per_ranking", "count"},
	{"wirecodec.ciphertext_marshal_ns", "ns"},
	{"wirecodec.ciphertext_unmarshal_ns", "ns"},
	{"journal.appends_per_ranking", "count"},
	{"journal.bytes_per_ranking", "B"},
	{"journal.append_us_p50", "us"},
	{"journal.fsync_ms_p50", "ms"},
	{"service.create_ms", "ms"},
	{"service.submit_ms", "ms"},
	{"service.result_wait_ms", "ms"},
	{"service.run_ms", "ms"},
	{"service.overhead_ms", "ms"},
	{"service.polls_per_ranking", "count"},
	{"service.admission_rejects", "count"},
	{"obsv.overhead_frac", "frac"},
	{"loadgen.lag_p90_ms", "ms"},
}

// config is one run's settings.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	short    bool
	tmp      string // this run's scratch directory, removed at exit
}

// tally counts rankings and keeps the first wrong one.
type tally struct {
	attempted, failed int
	wrong             error
}

// record files one ranking's outcome: err is a failure (an error,
// abort or refusal), bad a ranking that disagrees with the ground
// truth, which also counts as failed.
func (t *tally) record(err, bad error) {
	t.attempted++
	if err != nil || bad != nil {
		t.failed++
	}
	if bad != nil && t.wrong == nil {
		t.wrong = bad
	}
}

// outcome is what a workload run reports.
type outcome struct {
	tally
	metrics map[string]float64
}

type workloadFunc func(ctx context.Context, cfg config) (*outcome, error)

var workloads = map[string]workloadFunc{
	"inproc-ecc":      inprocECC.run,
	"service-open":    func(ctx context.Context, cfg config) (*outcome, error) { return runService(ctx, cfg, false) },
	"service-durable": func(ctx context.Context, cfg config) (*outcome, error) { return runService(ctx, cfg, true) },
	"party-tcp":       partyTCP.run,
}

func main() { os.Exit(run()) }

func run() int {
	var (
		workload   = flag.String("workload", "", "workload to run: inproc-ecc, service-open, service-durable, party-tcp, or all")
		seed       = flag.Uint64("seed", 1, "seed every input of the run is drawn from")
		seconds    = flag.Float64("seconds", 25, "how long the measured phase runs")
		trace      = flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
		short      = flag.Bool("short", false, "quick check: every metric reported with its unit, no ranking failed")
		setupProbe = flag.Bool("setup-probe", false, "internal: time one cold set-up of -workload and print it")
	)
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "rankbench: --trace takes 0 or 1")
		return 2
	}
	if *short {
		*seconds = min(*seconds, 4)
	}
	if *workload == "all" {
		return runAll(*seed, *seconds, *short)
	}
	fn, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "rankbench: unknown workload %q\n", *workload)
		return 2
	}
	if _, err := os.Stat(filepath.Join("rankbench", "go.mod")); err != nil {
		fmt.Fprintln(os.Stderr, "rankbench: run from the root of the repository")
		return 2
	}
	cfg := config{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1, short: *short}
	if err := os.MkdirAll(filepath.Join(".bench_build", "tmp"), 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "rankbench:", err)
		return 1
	}
	tmp, err := os.MkdirTemp(filepath.Join(".bench_build", "tmp"), "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "rankbench:", err)
		return 1
	}
	defer os.RemoveAll(tmp)
	if cfg.tmp, err = filepath.Abs(tmp); err != nil {
		fmt.Fprintln(os.Stderr, "rankbench:", err)
		return 1
	}

	// An interrupt cancels the run; the workload's deferred cleanup
	// kills its children and the deferred RemoveAll clears the scratch
	// directory before the process exits.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *setupProbe {
		d, err := probeSetup(ctx, cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "rankbench: set-up probe:", err)
			return 1
		}
		fmt.Println(d.Seconds())
		return 0
	}

	host := hostInfo()
	calib := startCalibration()
	out, err := fn(ctx, cfg)
	host.CalibExpUS = calib.finish()
	if err != nil {
		fmt.Fprintf(os.Stderr, "rankbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	if ctx.Err() != nil {
		fmt.Fprintln(os.Stderr, "rankbench: interrupted")
		return 1
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
		out.metrics["host.calib_bigexp_us"] = host.CalibExpUS
	}
	line, err := resultLine(out, defs)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rankbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	hostLine, _ := json.Marshal(map[string]any{"host": host, "workload": cfg.workload, "seed": cfg.seed, "trace": *trace})
	fmt.Println(string(hostLine))
	fmt.Println(string(line))
	if out.wrong != nil {
		fmt.Fprintln(os.Stderr, "rankbench: WRONG RANKING:", out.wrong)
		return 1
	}
	if cfg.short {
		if err := checkShort(out, defs, cfg.trace); err != nil {
			fmt.Fprintf(os.Stderr, "rankbench: %s short check: %v\n", cfg.workload, err)
			return 1
		}
	}
	return 0
}

// resultLine renders the final JSON object with every metric of defs.
func resultLine(out *outcome, defs []metricDef) ([]byte, error) {
	if out.attempted < 1 {
		return nil, errors.New("no ranking was attempted")
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(defs))
	for _, d := range defs {
		v, ok := out.metrics[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.name, v)
		}
		metrics[d.name] = value{v, d.unit}
	}
	return json.Marshal(map[string]any{
		"correct":   out.wrong == nil,
		"attempted": out.attempted,
		"failed":    out.failed,
		"metrics":   metrics,
	})
}

// checkShort is the short mode's gate: the metrics this run printed
// are exactly those BENCHMARK.json declares for it, with the same
// units, and no ranking failed.
func checkShort(out *outcome, defs []metricDef, trace bool) error {
	if out.failed != 0 {
		return fmt.Errorf("%d of %d rankings failed", out.failed, out.attempted)
	}
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	declared := spec.EndToEnd
	if trace {
		declared = spec.PerLayer
	}
	if len(declared) != len(defs) {
		return fmt.Errorf("BENCHMARK.json declares %d metrics, the run reports %d", len(declared), len(defs))
	}
	for i, d := range declared {
		if d.Name != defs[i].name || d.Unit != defs[i].unit {
			return fmt.Errorf("BENCHMARK.json metric %d is %s (%s), the run reports %s (%s)", i, d.Name, d.Unit, defs[i].name, defs[i].unit)
		}
	}
	return nil
}
