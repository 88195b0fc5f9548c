package service

import (
	"strconv"

	"leo/internal/metrics"
)

// Fleet-level observability. Shard-scoped instruments carry a constant
// "shard" label and live on the same default registry as everything else,
// so -metrics-addr exposes the whole serving picture without new plumbing.
var (
	mTenants = metrics.NewGauge("leo_service_tenants",
		"tenants currently admitted across all shards")
	mRegisters = metrics.NewCounter("leo_service_registers_total",
		"successful tenant registrations")
	mWindows = metrics.NewCounter("leo_service_windows_total",
		"observation windows accepted and fitted")
	mShedWindows = metrics.NewCounter("leo_service_shed_windows_total",
		"windows served by a load-shedding rung instead of the tenant's own")
	mEstimationFailures = metrics.NewCounter("leo_service_estimation_failures_total",
		"tenant windows whose fit or validation failed")
	mDegrades = metrics.NewCounter("leo_service_degrades_total",
		"sticky tenant demotions down the fallback ladder")
	mRejectedQueue = metrics.NewCounter("leo_service_rejected_total",
		"requests rejected by backpressure or admission control",
		metrics.Label{Key: "reason", Value: "queue_full"})
	mRejectedSessions = metrics.NewCounter("leo_service_rejected_total",
		"requests rejected by backpressure or admission control",
		metrics.Label{Key: "reason", Value: "max_sessions"})
	mRejectedDraining = metrics.NewCounter("leo_service_rejected_total",
		"requests rejected by backpressure or admission control",
		metrics.Label{Key: "reason", Value: "draining"})
	mCanceled = metrics.NewCounter("leo_service_rejected_total",
		"requests rejected by backpressure or admission control",
		metrics.Label{Key: "reason", Value: "client_canceled"})
	mRestoredTenants = metrics.NewCounter("leo_service_restored_tenants_total",
		"tenants reconstructed from per-shard snapshots and journals")
	mSnapshotDiscards = metrics.NewCounter("leo_service_snapshot_discards_total",
		"shard snapshots discarded at recovery because an entry's prior changed")
	mEncodeErrors = metrics.NewCounter("leo_service_encode_errors",
		"HTTP responses whose JSON encoding failed mid-write")
	mPlanCacheHits = metrics.NewCounter("leo_service_plan_cache_total",
		"plan requests answered from or missing the per-tenant plan cache",
		metrics.Label{Key: "result", Value: "hit"})
	mPlanCacheMisses = metrics.NewCounter("leo_service_plan_cache_total",
		"plan requests answered from or missing the per-tenant plan cache",
		metrics.Label{Key: "result", Value: "miss"})
	mSeedCaptures = metrics.NewCounter("leo_service_seed_captures_total",
		"class posteriors captured as cold-start seeds")
	mSeedTransfers = metrics.NewCounter("leo_service_seed_transfers_total",
		"tenants admitted warm from a captured class posterior")

	// Latency is measured in the HTTP layer (queueing included — that is
	// what a tenant experiences), depth at batch gather time.
	mPlanLatency = metrics.NewHistogram("leo_service_plan_seconds",
		"HTTP plan latency, request receipt to reply",
		metrics.ExponentialBuckets(1e-5, 2, 22))
	mObserveLatency = metrics.NewHistogram("leo_service_observe_seconds",
		"HTTP observe latency, request receipt to reply",
		metrics.ExponentialBuckets(1e-5, 2, 22))
	mBatchSize = metrics.NewHistogram("leo_service_batch_requests",
		"requests coalesced per shard scheduling tick",
		[]float64{1, 2, 4, 8, 16, 32, 64, 128})
)

// shardMetrics are the per-shard gauges, registered once per shard index
// with a constant label.
type shardMetrics struct {
	tenants *metrics.Gauge
	queue   *metrics.Gauge
}

func newShardMetrics(id int) shardMetrics {
	l := metrics.Label{Key: "shard", Value: strconv.Itoa(id)}
	return shardMetrics{
		tenants: metrics.NewGauge("leo_service_shard_tenants",
			"tenants owned by this shard", l),
		queue: metrics.NewGauge("leo_service_shard_queue_depth",
			"requests waiting in this shard's queue at the last tick", l),
	}
}
