package main

import (
	"bufio"
	"strconv"
	"strings"

	"groupranking/internal/obsv"
)

// phaseMetric maps each Observer phase to its per-layer metric.
var phaseMetric = map[string]string{
	"session":      "core.session_ms",
	"gain":         "core.gain_ms",
	"keygen":       "unlinksort.keygen_ms",
	"key-proof":    "unlinksort.key-proof_ms",
	"publish-bits": "unlinksort.publish-bits_ms",
	"compare":      "unlinksort.compare_ms",
	"chain":        "unlinksort.chain_ms",
	"final-set":    "unlinksort.final-set_ms",
	"submission":   "core.submission_ms",
}

// spanAgg accumulates the Observer spans of traced rankings.
type spanAgg struct {
	rankings  int
	phaseWall map[string][]float64 // per ranking: slowest participant's span, ms
	phaseExps map[string]float64   // exps counted in the phase, all participants, all rankings
	exps      float64
	decs      float64
	fieldMuls float64
	msgs      float64
	meshSetup []float64 // per ranking: latest first-span start over the parties, ms
}

// add folds in one ranking's spans. Phase walls are the maximum over
// participants (party ≥ 1): the initiator's submission span covers the
// whole run while it waits.
func (a *spanAgg) add(spans []obsv.SpanSnapshot) {
	if a.phaseWall == nil {
		a.phaseWall = map[string][]float64{}
		a.phaseExps = map[string]float64{}
	}
	a.rankings++
	wall := map[string]float64{}
	first := map[int]int64{}
	for _, s := range spans {
		a.exps += float64(s.Counts["group_exp"])
		a.decs += float64(s.Counts["elgamal_dec"])
		a.fieldMuls += float64(s.Counts["field_mul"])
		a.msgs += float64(s.Counts["msgs_sent"])
		if _, ok := phaseMetric[s.Phase]; !ok {
			continue
		}
		if t, ok := first[s.Party]; !ok || s.StartUS < t {
			first[s.Party] = s.StartUS
		}
		if s.Party == 0 {
			continue
		}
		wall[s.Phase] = max(wall[s.Phase], float64(s.DurUS)/1000)
		a.phaseExps[s.Phase] += float64(s.Counts["group_exp"])
	}
	for phase, w := range wall {
		a.phaseWall[phase] = append(a.phaseWall[phase], w)
	}
	var setup int64
	for _, t := range first {
		setup = max(setup, t)
	}
	a.meshSetup = append(a.meshSetup, float64(setup)/1000)
}

// report writes the span metrics; expVarUS is the measured cost of one
// variable-base Exp on the group the rankings ran on.
func (a *spanAgg) report(m map[string]float64, expVarUS float64) {
	if a.rankings == 0 {
		return
	}
	n := float64(a.rankings)
	for phase, name := range phaseMetric {
		m[name] = median(a.phaseWall[phase])
	}
	m["core.exps_per_ranking"] = a.exps / n
	m["core.decs_per_ranking"] = a.decs / n
	m["dotprod.field_muls_per_ranking"] = a.fieldMuls / n
	m["transport.msgs_per_ranking"] = a.msgs / n
	m["transport.mesh_setup_ms"] = median(a.meshSetup)
	for _, phase := range []string{"chain", "final-set"} {
		if w := mean(a.phaseWall[phase]); w > 0 {
			m["unlinksort."+phase+"_explained_frac"] = a.phaseExps[phase] / n * expVarUS / 1000 / w
		}
	}
}

// sumMetric sums every sample of one metric family in a Prometheus
// text exposition, across all label values.
func sumMetric(text, name string) float64 {
	total := 0.0
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 64*1024), 1<<22)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, name) {
			continue
		}
		rest := line[len(name):]
		if rest == "" || (rest[0] != ' ' && rest[0] != '{') {
			continue // a longer name sharing the prefix
		}
		fields := strings.Fields(rest[strings.LastIndexByte(rest, '}')+1:])
		if len(fields) == 0 {
			continue
		}
		if v, err := strconv.ParseFloat(fields[0], 64); err == nil {
			total += v
		}
	}
	return total
}
