package service

import "ahs/internal/telemetry"

// Metrics are the manager's operational counters and gauges. They live as
// families in the manager's telemetry.Registry, scraped at GET /metrics in
// Prometheus text format.
//
// Counters are monotonic; QueueDepth and Running are gauges.
type Metrics struct {
	// Submitted counts accepted evaluation requests, including ones
	// answered from cache or deduplicated onto an in-flight job.
	Submitted *telemetry.Counter
	// Completed / Failed / Cancelled count finished jobs by outcome.
	Completed *telemetry.Counter
	Failed    *telemetry.Counter
	Cancelled *telemetry.Counter
	// CacheHits counts submissions answered from the result cache;
	// CacheMisses counts submissions that had to enqueue work.
	CacheHits   *telemetry.Counter
	CacheMisses *telemetry.Counter
	// StoreHits counts submissions answered from the persistent second
	// tier (and backfilled into the LRU); StoreMisses counts submissions
	// that missed both tiers and evaluated. Both stay zero without a
	// configured store, keeping cache_hit_ratio's meaning unchanged for
	// single-tier deployments.
	StoreHits   *telemetry.Counter
	StoreMisses *telemetry.Counter
	// DedupHits counts submissions coalesced onto an already queued or
	// running job with the same canonical hash.
	DedupHits *telemetry.Counter
	// QueueRejects counts submissions bounced with a full queue (the
	// HTTP layer's 429s).
	QueueRejects *telemetry.Counter
	// QueueDepth is the current number of queued-but-not-running jobs;
	// Running the number of jobs being evaluated right now.
	QueueDepth *telemetry.Gauge
	Running    *telemetry.Gauge
	// EvalMillis accumulates wall-clock evaluation time across finished
	// jobs; BatchesSimulated the trajectories they simulated. Their
	// ratio is the service's cost per batch.
	EvalMillis       *telemetry.Counter
	BatchesSimulated *telemetry.Counter
}

// newMetrics registers the service families on reg. workers sizes the
// derived worker-utilization gauge.
func newMetrics(reg *telemetry.Registry, workers int) Metrics {
	counter := func(name, help string) *telemetry.Counter {
		return reg.Counter(telemetry.Opts{Name: name, Help: help})
	}
	m := Metrics{
		Submitted:        counter("ahs_service_submitted_total", "Accepted evaluation requests (cache and dedup hits included)."),
		Completed:        counter("ahs_service_completed_total", "Jobs finished successfully."),
		Failed:           counter("ahs_service_failed_total", "Jobs finished with an evaluation error."),
		Cancelled:        counter("ahs_service_cancelled_total", "Jobs cancelled by request, timeout or shutdown."),
		CacheHits:        counter("ahs_service_cache_hits_total", "Submissions answered from the in-memory result cache."),
		CacheMisses:      counter("ahs_service_cache_misses_total", "Submissions that missed the in-memory cache."),
		StoreHits:        counter("ahs_service_store_hits_total", "Submissions answered from the persistent result store."),
		StoreMisses:      counter("ahs_service_store_misses_total", "Submissions that missed the persistent store and evaluated."),
		DedupHits:        counter("ahs_service_dedup_hits_total", "Submissions coalesced onto an in-flight twin job."),
		QueueRejects:     counter("ahs_service_queue_rejects_total", "Submissions bounced with a full queue."),
		QueueDepth:       reg.Gauge(telemetry.Opts{Name: "ahs_service_queue_depth", Help: "Jobs queued but not yet running."}),
		Running:          reg.Gauge(telemetry.Opts{Name: "ahs_service_running", Help: "Jobs being evaluated right now."}),
		EvalMillis:       counter("ahs_service_eval_milliseconds_total", "Wall-clock evaluation time across finished jobs."),
		BatchesSimulated: counter("ahs_service_batches_simulated_total", "Monte-Carlo trajectories simulated by finished jobs."),
	}
	reg.GaugeFunc(telemetry.Opts{
		Name: "ahs_service_cache_hit_ratio",
		Help: "Cache hits over cache-deciding submissions (0 before any).",
	}, func() float64 {
		hits, misses := m.CacheHits.Value(), m.CacheMisses.Value()
		if hits+misses == 0 {
			return 0
		}
		return float64(hits) / float64(hits+misses)
	})
	reg.GaugeFunc(telemetry.Opts{
		Name: "ahs_service_store_hit_ratio",
		Help: "Persistent-store hits over store-deciding submissions (0 before any, and always 0 without a store).",
	}, func() float64 {
		hits, misses := m.StoreHits.Value(), m.StoreMisses.Value()
		if hits+misses == 0 {
			return 0
		}
		return float64(hits) / float64(hits+misses)
	})
	reg.GaugeFunc(telemetry.Opts{
		Name: "ahs_service_worker_utilization",
		Help: "Fraction of the worker pool evaluating a job.",
	}, func() float64 {
		if workers <= 0 {
			return 0
		}
		return float64(m.Running.Value()) / float64(workers)
	})
	return m
}
