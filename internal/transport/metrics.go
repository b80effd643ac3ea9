package transport

import (
	"strconv"
	"time"

	"groupranking/internal/telemetry"
)

// Live telemetry for the TCP fabrics. The obsv layer counts what the
// *protocol* sends (per phase, per party); these metrics cover what the
// *runtime* underneath does — round cadence, redials, retransmissions,
// ack lag, heartbeat RTT — which obsv never sees and the admin
// endpoint exports live. A nil *netMetrics (telemetry disabled) makes
// every hook a single nil check, and no metric ever adds wire traffic:
// the heartbeat RTT rides on frames the recovery link exchanges anyway.

// netMetrics bundles the handles one fabric endpoint feeds.
type netMetrics struct {
	msgs      *telemetry.Counter
	bytes     *telemetry.Counter
	echoMsgs  *telemetry.Counter
	echoBytes *telemetry.Counter
	rounds    *telemetry.Counter

	// roundSeconds observes the wall time between the first sends of
	// successive protocol rounds — the live per-round cadence.
	roundSeconds *telemetry.Histogram
	// hbRTT observes heartbeat round trips (recovering fabric only).
	hbRTT *telemetry.Histogram

	redials     *telemetry.CounterVec
	connects    *telemetry.CounterVec
	retransmits *telemetry.CounterVec
	ackLag      *telemetry.GaugeVec
	linkUp      *telemetry.GaugeVec

	lastRound time.Time // guarded by the owning fabric's stats mutex
}

func newNetMetrics(reg *telemetry.Registry) *netMetrics {
	if reg == nil {
		return nil
	}
	return &netMetrics{
		msgs:      reg.Counter("transport_msgs_total", "Protocol messages sent by this endpoint."),
		bytes:     reg.Counter("transport_bytes_total", "Protocol bytes sent by this endpoint."),
		echoMsgs:  reg.Counter("transport_echo_msgs_total", "Echo-broadcast sub-round messages sent (consistency overhead, outside the protocol counters)."),
		echoBytes: reg.Counter("transport_echo_bytes_total", "Echo-broadcast sub-round bytes sent."),
		rounds:    reg.Counter("transport_rounds_total", "Distinct protocol rounds this endpoint has sent in."),
		roundSeconds: reg.Histogram("transport_round_seconds",
			"Wall time between the first sends of successive protocol rounds.",
			telemetry.ExpBuckets(0.001, 4, 10)), // 1ms .. ~262s
		hbRTT: reg.Histogram("transport_heartbeat_rtt_seconds",
			"Heartbeat round-trip time per link.",
			telemetry.ExpBuckets(0.0001, 4, 10)), // 100µs .. ~26s
		redials:     redialsVec(reg),
		connects:    reg.CounterVec("transport_link_connects_total", "Successful link (re)establishments per peer.", "peer"),
		retransmits: reg.CounterVec("transport_retransmits_total", "Frames retransmitted to a peer after a reconnect.", "peer"),
		ackLag:      reg.GaugeVec("transport_ack_lag_frames", "Sent frames not yet acknowledged by the peer.", "peer"),
		linkUp:      reg.GaugeVec("transport_link_up", "Link state per peer: 1 connected, 0 down.", "peer"),
	}
}

// redialsVec registers the dial-attempt family on its own: a mesh feeds
// it from formation on, before the endpoint's traffic series exist.
func redialsVec(reg *telemetry.Registry) *telemetry.CounterVec {
	return reg.CounterVec("transport_redials_total", "Dial attempts per peer, including initial mesh formation.", "peer")
}

// onSendLocked feeds the protocol-traffic counters. It must run inside
// the same critical section as the fabric's Stats accounting (the
// caller holds the stats mutex), so the exported counters and Stats can
// never disagree about whether a round has started.
func (m *netMetrics) onSendLocked(round, bytes int, newRound bool) {
	if m == nil {
		return
	}
	if IsEchoRound(round) {
		m.echoMsgs.Inc()
		m.echoBytes.Add(int64(bytes))
		return
	}
	m.msgs.Inc()
	m.bytes.Add(int64(bytes))
	if newRound {
		m.rounds.Inc()
		now := time.Now()
		if !m.lastRound.IsZero() {
			m.roundSeconds.Observe(now.Sub(m.lastRound).Seconds())
		}
		m.lastRound = now
	}
}

// observeRTT records one heartbeat round trip.
func (m *netMetrics) observeRTT(rtt time.Duration) {
	if m == nil {
		return
	}
	m.hbRTT.Observe(rtt.Seconds())
}

// linkMetrics is the per-peer slice of netMetrics a recovery link
// holds. The zero value (telemetry disabled) is fully inert.
type linkMetrics struct {
	redials     *telemetry.Counter
	connects    *telemetry.Counter
	retransmits *telemetry.Counter
	ackLag      *telemetry.Gauge
	linkUp      *telemetry.Gauge
}

func (m *netMetrics) link(peer int) linkMetrics {
	if m == nil {
		return linkMetrics{}
	}
	p := strconv.Itoa(peer)
	return linkMetrics{
		redials:     m.redials.With(p),
		connects:    m.connects.With(p),
		retransmits: m.retransmits.With(p),
		ackLag:      m.ackLag.With(p),
		linkUp:      m.linkUp.With(p),
	}
}
