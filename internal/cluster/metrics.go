package cluster

import (
	"privehd/internal/metrics"
)

// Client-side fleet instrumentation on the process-global registry: pool
// connection lifecycle per address, and cluster health transitions per
// replica. Pool gauges are resynced under the pool mutex after every
// conns mutation; transition counters only move on actual state changes,
// so steady-state probing is metric-silent.
var (
	cmPoolConns = metrics.Default.NewGaugeVec(
		"privehd_pool_connections",
		"Live pooled connections, by server address.",
		"addr")
	cmPoolInflight = metrics.Default.NewGaugeVec(
		"privehd_pool_inflight",
		"Operations currently using a pooled connection, by server address.",
		"addr")
	cmPoolDials = metrics.Default.NewCounterVec(
		"privehd_pool_dials_total",
		"Successful connection establishments, by server address. Exceeding privehd_pool_connections means redials replaced broken or reaped connections.",
		"addr")
	cmPoolRetries = metrics.Default.NewCounterVec(
		"privehd_pool_retries_total",
		"Operations a standalone pool retried on a second connection after a transport failure, by server address. A cluster's pools never retry: the cluster fails over instead.",
		"addr")
	cmPoolAcquireWait = metrics.Default.NewHistogramVec(
		"privehd_pool_acquire_wait_seconds",
		"Time an operation waited to be handed a pooled connection — dial time, backoff, or waiting for a saturated pool — by server address. The client-queue stage of a request's latency budget.",
		nil, "addr")
	cmReplicaHealthy = metrics.Default.NewGaugeVec(
		"privehd_cluster_replica_healthy",
		"1 while the replica is admitted for traffic, 0 while ejected.",
		"replica")
	cmTransitions = metrics.Default.NewCounterVec(
		"privehd_cluster_health_transitions_total",
		"Replica health transitions by replica address and event (ejected | readmitted).",
		"replica", "event")
	cmFailovers = metrics.Default.NewCounter(
		"privehd_cluster_failovers_total",
		"Operations that moved to another replica after ejecting the one that failed them.")
	cmScatterChunks = metrics.Default.NewCounter(
		"privehd_cluster_batch_scatter_chunks_total",
		"Batch chunks answered by the fleet-wide batch scatter (only batches large enough to split count).")
	cmHedges = metrics.Default.NewCounterVec(
		"privehd_cluster_hedges_total",
		"Hedged backup requests by outcome: won (the hedge answered first), lost (the primary answered first after the hedge also finished), canceled (the primary answered first and the hedge was abandoned mid-flight or had failed, or both attempts failed and the call failed).",
		"outcome")
	cmPoolPings = metrics.Default.NewCounterVec(
		"privehd_pool_pings_total",
		"In-band liveness pings on idle pooled connections, by server address and result (ok | failed). A failed ping drops the dead connection before a caller is handed it.",
		"addr", "result")
	cmRetryBudgetExhausted = metrics.Default.NewCounter(
		"privehd_cluster_retry_budget_exhausted_total",
		"Operations that stopped failing over because their per-call allowance of 4 × replicas failovers ran out.")
)

// syncGauges publishes the pool's connection and in-flight gauges. The
// caller must hold p.mu.
func (p *Pool) syncGauges() {
	inflight := 0
	for _, pc := range p.conns {
		inflight += pc.inflight
	}
	cmPoolConns.With(p.cfg.Addr).Set(int64(len(p.conns)))
	cmPoolInflight.With(p.cfg.Addr).Set(int64(inflight))
}
