package shard

import (
	"privehd/internal/metrics"
)

// Coordinator-side gather instrumentation on the process-global registry,
// labelled by shard descriptor so a straggling or flapping slice is
// visible per shard, not averaged away across the fleet.
var (
	smGathers = metrics.Default.NewCounterVec(
		"privehd_shard_gathers_total",
		"Partial-score gathers answered, by shard descriptor. One logical prediction bumps every shard's counter once.",
		"shard")
	smGatherSeconds = metrics.Default.NewHistogramVec(
		"privehd_shard_gather_seconds",
		"Round-trip latency of one shard's partial-score gather (including its internal failover retries), by shard descriptor.",
		nil, "shard")
	smGatherErrors = metrics.Default.NewCounterVec(
		"privehd_shard_gather_errors_total",
		"Gathers that failed after exhausting the shard's replicas, by shard descriptor.",
		"shard")
	smPartialRetries = metrics.Default.NewCounterVec(
		"privehd_shard_partial_retries_total",
		"Partial-score calls issued to a shard beyond the first of one gather, by shard descriptor: re-issued to another replica of the same shard after a failure, or sent as a hedged backup (counted even when nothing failed). Only the missing shard is retried, never the whole scatter.",
		"shard")
)
