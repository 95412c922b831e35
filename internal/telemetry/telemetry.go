// Package telemetry is the repository's stdlib-only metrics subsystem:
// counters, gauges and fixed/exponential-bucket histograms behind an
// atomic, allocation-free hot path, organised into a Registry of labeled
// families with deterministic snapshotting and Prometheus text-format
// exposition (see WriteText and Handler).
//
// The design splits instrumentation into two halves so the simulation
// engine stays observable without paying for observability:
//
//   - The engine half (internal/sim, internal/mc, internal/core) reports
//     through the tiny Sink interface. Every call site is guarded by a nil
//     check, so a disabled pipeline costs one predictable branch per event
//     — benchmarked in internal/mc (BenchmarkMCBaseline vs
//     BenchmarkMCInstrumented).
//   - The collection half (SimCollector, internal/service) maps Sink
//     events onto registry families with stable names and labels;
//     docs/observability.md is the metric catalogue.
//
// Registries are independent: tests and concurrent services each build
// their own, so nothing is process-global and registration never collides
// the way expvar.Publish does.
package telemetry

// Metric keys understood by Sink implementations. They are deliberately
// engine-level vocabulary (what happened in a trajectory), not exposition
// names; SimCollector maps them onto the ahs_sim_* families.
const (
	// MetricActivityFirings counts timed-activity completions; the label
	// is the activity name (replica-scoped, e.g. "one_vehicle[3].L2" —
	// collectors may collapse it). sim.Runner reports it once per
	// trajectory and activity.
	MetricActivityFirings = "activity_firings"
	// MetricManeuverAttempts counts recovery-maneuver attempts; the label
	// is the recovery type (AS, CS, GS, TIE, TIE-E, TIE-N).
	MetricManeuverAttempts = "maneuver_attempts"
	// MetricManeuverFailures counts failed attempts, same labels.
	MetricManeuverFailures = "maneuver_failures"
	// MetricCatastrophes counts trajectories absorbed in KO_total; the
	// label is the catastrophic situation (ST1, ST2, ST3).
	MetricCatastrophes = "catastrophes"
	// MetricTrajectories counts completed trajectories (no label).
	MetricTrajectories = "trajectories"
	// MetricTrajectorySteps observes timed steps per trajectory (no label).
	MetricTrajectorySteps = "trajectory_steps"
	// MetricTimeToKO observes the first-passage time to KO_total in hours
	// (no label; the collector attaches its strategy).
	MetricTimeToKO = "time_to_ko"
)

// Sink receives engine-level simulation events. Implementations must be
// safe for concurrent use: the Monte-Carlo engine calls one sink from every
// worker goroutine.
//
// Instrumented code holds a Sink-typed field and guards each call with a
// nil check; a nil sink therefore disables telemetry at the cost of one
// branch. Counts may arrive batched: sim.Runner hands over each activity's
// firings once per trajectory, while other callers add 1 per event. Unknown
// metric keys must be ignored, so engine and collector can evolve
// independently.
type Sink interface {
	// Add adds n occurrences of the (metric, label) pair.
	Add(metric, label string, n uint64)
	// Observe records a sampled value for the (metric, label) pair.
	Observe(metric, label string, v float64)
}
