package dist

// The coordinator's instrument set, registered on Options.Metrics — or on
// a private registry when none is supplied — so /metrics on a serving
// coordinator shows transport counters and per-worker gauges mid-run.
// Registration is get-or-create, so coordinators sharing one registry
// (several serving sessions) accumulate into the same totals: the scrape
// shows the process, not one engine. Region rounds run concurrently (and
// hedges concurrently within a round); the instruments are lock-free
// atomics, so no update is lost or torn under -race.

import "repro/internal/obs"

// distMetrics are the coordinator's registry instruments.
type distMetrics struct {
	rounds        *obs.Counter
	rpcs          *obs.Counter
	retries       *obs.Counter
	redispatches  *obs.Counter
	hedges        *obs.Counter
	localSteps    *obs.Counter
	snapshotBytes *obs.Counter
	roundDur      *obs.Histogram

	workerHealthy  *obs.GaugeVec
	workerLatency  *obs.GaugeVec
	workerLoad     *obs.GaugeVec
	workerFailures *obs.CounterVec
}

// newDistMetrics registers the instrument set on reg; nil gets a private
// registry.
func newDistMetrics(reg *obs.Registry) *distMetrics {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	return &distMetrics{
		rounds: reg.Counter("dist_rounds_total",
			"Completed se-dist coordinator rounds."),
		rpcs: reg.Counter("dist_rpcs_total",
			"Successful se-dist step RPCs (placement traffic not included)."),
		retries: reg.Counter("dist_retries_total",
			"Failed se-dist step attempts that were retried or re-placed."),
		redispatches: reg.Counter("dist_redispatches_total",
			"se-dist regions moved to a different worker."),
		hedges: reg.Counter("dist_hedges_total",
			"Speculative duplicate rounds issued against straggling workers."),
		localSteps: reg.Counter("dist_local_steps_total",
			"Region generations executed by the in-process fallback."),
		snapshotBytes: reg.Counter("dist_snapshot_bytes_total",
			"Serialized region snapshot bytes returned by step RPCs."),
		roundDur: reg.Histogram("dist_round_duration_seconds",
			"se-dist coordinator round latency in seconds.", obs.DefBuckets()),
		workerHealthy: reg.GaugeVec("dist_worker_healthy",
			"1 while the worker accepts dispatches, 0 during a failure cooldown.", "worker"),
		workerLatency: reg.GaugeVec("dist_worker_latency_seconds",
			"Smoothed (EWMA) step-RPC latency per worker, in seconds.", "worker"),
		workerLoad: reg.GaugeVec("dist_worker_load",
			"Regions currently placed on the worker.", "worker"),
		workerFailures: reg.CounterVec("dist_worker_failures_total",
			"Failed RPCs per worker.", "worker"),
	}
}
