package shard

import (
	"time"

	"ksp/internal/obs"
)

// shardMetrics is one shard's instrument set. All access is nil-safe:
// a coordinator without EnableMetrics carries nil pointers and pays a
// single branch per site.
type shardMetrics struct {
	callsOK  *obs.Counter
	callsErr *obs.Counter
	retries  *obs.Counter
	hedges   *obs.Counter
	duration *obs.Histogram
}

// EnableMetrics registers per-shard instruments in reg and starts
// recording. Call once, before serving queries (the same contract as
// Dataset.EnableMetrics). Breaker state and trip counts are exported
// through live read-through functions, so /metrics always reflects the
// current state machine.
func (c *Coordinator) EnableMetrics(reg *obs.Registry) {
	c.gateWait.Store(reg.Histogram("ksp_shard_gate_wait_seconds",
		"Time a shard call was held back so nearer tiles could establish the gather's threshold first.",
		obs.DefLatencyBuckets))
	for _, st := range c.shards {
		st := st
		name := obs.Label{Key: "shard", Value: st.shard.Name()}
		m := &shardMetrics{}
		m.callsOK = reg.Counter("ksp_shard_calls_total",
			"Shard call attempts by outcome.", name, obs.Label{Key: "outcome", Value: "ok"})
		m.callsErr = reg.Counter("ksp_shard_calls_total",
			"Shard call attempts by outcome.", name, obs.Label{Key: "outcome", Value: "error"})
		m.retries = reg.Counter("ksp_shard_retries_total",
			"Shard call attempts beyond the first of their query.", name)
		m.hedges = reg.Counter("ksp_shard_hedges_total",
			"Hedged second attempts launched against straggling shards.", name)
		m.duration = reg.Histogram("ksp_shard_call_duration_seconds",
			"Per-attempt shard call latency.", obs.DefLatencyBuckets, name)
		reg.CounterFunc("ksp_shard_breaker_trips_total",
			"Circuit-breaker open transitions.",
			func() float64 { _, trips := st.br.snapshot(); return float64(trips) }, name)
		reg.GaugeFunc("ksp_shard_breaker_state",
			"Circuit-breaker state: 0 closed, 1 half-open, 2 open.",
			func() float64 {
				switch state, _ := st.br.snapshot(); state {
				case stateOpen:
					return 2
				case stateHalfOpen:
					return 1
				default:
					return 0
				}
			}, name)
		st.mu.Lock()
		st.m = m
		st.mu.Unlock()
	}
}

func (st *shardState) metrics() *shardMetrics {
	st.mu.Lock()
	m := st.m
	st.mu.Unlock()
	return m
}

func (m *shardMetrics) noteCall(ok bool, dur time.Duration) {
	if m == nil {
		return
	}
	if ok {
		m.callsOK.Inc()
	} else {
		m.callsErr.Inc()
	}
	m.duration.Observe(dur.Seconds())
}

func (m *shardMetrics) noteRetry() {
	if m == nil {
		return
	}
	m.retries.Inc()
}

func (m *shardMetrics) noteHedge() {
	if m == nil {
		return
	}
	m.hedges.Inc()
}
