package cluster

import "ahs/internal/telemetry"

// metrics holds the coordinator's telemetry families. A nil receiver (no
// registry configured) disables every recording at the cost of one branch.
type metrics struct {
	leased    *telemetry.Counter
	completed *telemetry.Counter
	requeued  *telemetry.Counter
	failed    *telemetry.Counter
	fallback  *telemetry.Counter
	rescued   *telemetry.Counter
	mergeSec  *telemetry.Histogram
}

func newMetrics(reg *telemetry.Registry, coord *Coordinator) *metrics {
	if reg == nil {
		return nil
	}
	m := &metrics{
		leased: reg.Counter(telemetry.Opts{
			Name: "ahs_cluster_chunks_leased_total",
			Help: "Chunks handed to workers on lease.",
		}),
		completed: reg.Counter(telemetry.Opts{
			Name: "ahs_cluster_chunks_completed_total",
			Help: "Chunk results folded into a merger.",
		}),
		requeued: reg.Counter(telemetry.Opts{
			Name: "ahs_cluster_chunks_requeued_total",
			Help: "Chunks returned to the queue after lease expiry, worker death or worker error.",
		}),
		failed: reg.Counter(telemetry.Opts{
			Name: "ahs_cluster_chunk_failures_total",
			Help: "Worker-reported chunk failures (including rejected results).",
		}),
		fallback: reg.Counter(telemetry.Opts{
			Name: "ahs_cluster_local_fallback_total",
			Help: "Jobs that started with no live worker registered, so the coordinator began simulating them itself.",
		}),
		rescued: reg.Counter(telemetry.Opts{
			Name: "ahs_cluster_chunks_rescued_total",
			Help: "Chunks the coordinator simulated itself while no live worker was registered.",
		}),
		mergeSec: reg.Histogram(telemetry.Opts{
			Name:    "ahs_cluster_merge_seconds",
			Help:    "Latency of folding one chunk result into the merger.",
			Buckets: []float64{1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1},
		}),
	}
	reg.GaugeFunc(telemetry.Opts{
		Name: "ahs_cluster_workers_registered",
		Help: "Workers currently registered (excluded workers not counted).",
	}, func() float64 { return float64(coord.Status().WorkersRegistered) })
	reg.GaugeFunc(telemetry.Opts{
		Name: "ahs_cluster_workers_live",
		Help: "Registered workers seen within the heartbeat window.",
	}, func() float64 { return float64(coord.Status().WorkersLive) })
	reg.GaugeFunc(telemetry.Opts{
		Name: "ahs_cluster_chunks_leased",
		Help: "Chunks currently out on lease (worker utilization).",
	}, func() float64 { return float64(coord.Status().LeasedChunks) })
	reg.GaugeFunc(telemetry.Opts{
		Name: "ahs_cluster_chunks_queued",
		Help: "Chunks waiting for a lease across all active jobs.",
	}, func() float64 { return float64(coord.Status().QueuedChunks) })
	return m
}

func (m *metrics) chunkLeased() {
	if m != nil {
		m.leased.Inc()
	}
}

func (m *metrics) chunkCompleted(mergeSeconds float64) {
	if m != nil {
		m.completed.Inc()
		m.mergeSec.Observe(mergeSeconds)
	}
}

func (m *metrics) chunkRequeued() {
	if m != nil {
		m.requeued.Inc()
	}
}

func (m *metrics) chunkFailed() {
	if m != nil {
		m.failed.Inc()
	}
}

func (m *metrics) localFallback() {
	if m != nil {
		m.fallback.Inc()
	}
}

func (m *metrics) chunkRescued() {
	if m != nil {
		m.rescued.Inc()
	}
}
