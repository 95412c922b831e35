package telemetry

import "sync"

// Bucket layouts of the simulation histograms. Exported so tests and the
// docs/observability.md catalogue stay in sync with the exposition.
var (
	// TimeToKOBuckets covers first-passage times from minutes to several
	// times the paper's 10-hour horizon.
	TimeToKOBuckets = ExponentialBuckets(0.125, 2, 10)
	// TrajectoryStepBuckets covers trajectory lengths from trivial to the
	// multi-million-step pathological tail.
	TrajectoryStepBuckets = ExponentialBuckets(8, 4, 10)
)

// SimCollector adapts Sink events from the simulation engine onto the
// ahs_sim_* registry families, all labeled by coordination strategy. One
// collector serves one strategy; collectors for different strategies share
// a registry because family registration is idempotent.
//
// Per-activity and per-maneuver counters are cached in lock-free maps, so
// the enabled hot path does one sync.Map load and one atomic add per Add
// call.
type SimCollector struct {
	strategy string
	collapse func(string) string

	firings      *CounterVec
	attempts     *CounterVec
	failures     *CounterVec
	catastrophes *CounterVec
	trajectories *Counter
	steps        *Histogram
	timeToKO     *Histogram

	firingCache  sync.Map // activity name -> *Counter
	attemptCache sync.Map // maneuver -> *Counter
	failureCache sync.Map // maneuver -> *Counter
	causeCache   sync.Map // cause -> *Counter
}

var _ Sink = (*SimCollector)(nil)

// NewSimCollector registers the simulation families on reg and returns a
// collector bound to the given strategy label. collapse, when non-nil, maps
// activity names before counting (pass trace.CollapseName to aggregate
// replicas); nil keeps full names.
func NewSimCollector(reg *Registry, strategy string, collapse func(string) string) *SimCollector {
	c := &SimCollector{
		strategy: strategy,
		collapse: collapse,
		firings: reg.CounterVec(Opts{
			Name: "ahs_sim_activity_firings_total",
			Help: "Timed-activity completions by (replica-collapsed) activity name.",
		}, "strategy", "activity"),
		attempts: reg.CounterVec(Opts{
			Name: "ahs_sim_maneuver_attempts_total",
			Help: "Recovery-maneuver attempts by recovery type (Table 1).",
		}, "strategy", "maneuver"),
		failures: reg.CounterVec(Opts{
			Name: "ahs_sim_maneuver_failures_total",
			Help: "Failed recovery-maneuver attempts by recovery type (Table 1).",
		}, "strategy", "maneuver"),
		catastrophes: reg.CounterVec(Opts{
			Name: "ahs_sim_catastrophes_total",
			Help: "Trajectories absorbed in KO_total by catastrophic situation (Table 2).",
		}, "strategy", "cause"),
	}
	// Resolve the strategy-only children eagerly: the hot path uses them
	// directly, and eager creation guarantees the families appear in every
	// scrape even before the first rare event.
	c.trajectories = reg.CounterVec(Opts{
		Name: "ahs_sim_trajectories_total",
		Help: "Completed Monte-Carlo trajectories.",
	}, "strategy").With(strategy)
	c.steps = reg.HistogramVec(Opts{
		Name:    "ahs_sim_trajectory_steps",
		Help:    "Timed steps per trajectory.",
		Buckets: TrajectoryStepBuckets,
	}, "strategy").With(strategy)
	c.timeToKO = reg.HistogramVec(Opts{
		Name:    "ahs_sim_time_to_ko_hours",
		Help:    "First-passage time to KO_total in hours.",
		Buckets: TimeToKOBuckets,
	}, "strategy").With(strategy)
	return c
}

// cached resolves a label through the per-collector cache, falling back to
// the registry on first use.
func (c *SimCollector) cached(cache *sync.Map, vec *CounterVec, label string) *Counter {
	if v, ok := cache.Load(label); ok {
		return v.(*Counter)
	}
	ctr := vec.With(c.strategy, label)
	v, _ := cache.LoadOrStore(label, ctr)
	return v.(*Counter)
}

// Add implements Sink.
func (c *SimCollector) Add(metric, label string, n uint64) {
	switch metric {
	case MetricActivityFirings:
		if c.collapse != nil {
			label = c.collapse(label)
		}
		c.cached(&c.firingCache, c.firings, label).Add(n)
	case MetricManeuverAttempts:
		c.cached(&c.attemptCache, c.attempts, label).Add(n)
	case MetricManeuverFailures:
		c.cached(&c.failureCache, c.failures, label).Add(n)
	case MetricCatastrophes:
		c.cached(&c.causeCache, c.catastrophes, label).Add(n)
	case MetricTrajectories:
		c.trajectories.Add(n)
	}
	// Unknown metrics are ignored by contract, so engine and collector can
	// version independently.
}

// Observe implements Sink.
func (c *SimCollector) Observe(metric, _ string, v float64) {
	switch metric {
	case MetricTrajectorySteps:
		c.steps.Observe(v)
	case MetricTimeToKO:
		c.timeToKO.Observe(v)
	}
}
