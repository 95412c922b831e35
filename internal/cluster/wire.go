// Package cluster distributes one Monte-Carlo unsafety evaluation across
// machines without changing its answer. A Coordinator shards an mc.Job into
// contiguous batch-range chunks (each chunk a stripe of RNG streams of the
// job seed), leases them to registered workers over a stdlib HTTP+JSON
// protocol, and folds the returned sufficient statistics (per-round Welford
// snapshots plus catastrophic-cause counters) through mc.Merger, so the
// merged curve is bit-identical to single-process mc.EstimateCurve for the
// same scenario — regardless of worker count, chunk arrival order, or
// mid-lease worker failure.
//
// Robustness envelope: leases carry deadlines and expire back onto the
// queue; workers that fail repeatedly are excluded; optional health URLs are
// probed when a worker goes quiet; whenever no live worker is registered —
// at submit or after every worker died mid-job — the coordinator simulates
// the queued chunks itself through the same Chunker and Merger. Completions
// are validated against the currently outstanding lease ID, so a requeued
// chunk can never be double-counted.
//
// The wire protocol is versioned under /cluster/v1/ (see docs/cluster.md).
package cluster

import (
	"strconv"
	"time"

	"ahs/internal/config"
	"ahs/internal/mc"
)

// Wire paths of the coordinator API, mounted by Coordinator.Handler.
const (
	PathRegister   = "/cluster/v1/register"
	PathLease      = "/cluster/v1/lease"
	PathComplete   = "/cluster/v1/complete"
	PathDeregister = "/cluster/v1/deregister"
	PathStatus     = "/cluster/v1/status"
)

// registerRequest announces a worker to the coordinator. Re-registering an
// ID refreshes its liveness; an excluded ID is refused (restart the worker
// under a fresh ID once fixed).
type registerRequest struct {
	// WorkerID is the worker's self-chosen stable identity.
	WorkerID string `json:"workerId"`
	// HealthURL, when set, lets the coordinator actively probe the worker
	// (GET, 2xx = alive) before declaring it dead.
	HealthURL string `json:"healthUrl,omitempty"`
}

type registerResponse struct {
	// PollInterval is the coordinator's suggested idle poll period.
	PollInterval duration `json:"pollInterval"`
}

// leaseRequest asks for one chunk of work.
type leaseRequest struct {
	WorkerID string `json:"workerId"`
}

// deregisterRequest announces a graceful worker departure: a draining
// worker finishes its current lease, reports it, then deregisters so the
// coordinator drops it immediately instead of after a heartbeat timeout.
type deregisterRequest struct {
	WorkerID string `json:"workerId"`
}

type deregisterResponse struct {
	OK bool `json:"ok"`
}

// Lease is one unit of distributed work: simulate the chunk of the
// scenario's job and report the sufficient statistics before the TTL runs
// out. The scenario is self-contained — the worker rebuilds the exact job
// from it — and RoundSize pins the canonical accumulation round, which must
// match the coordinator's merger for bit-identical folding.
type Lease struct {
	// ID identifies this lease; completions must echo it. A requeued
	// chunk gets a fresh ID, which is how stale completions are told
	// apart from the live attempt.
	ID string `json:"id"`
	// Scenario is the canonical evaluation scenario.
	Scenario *config.Scenario `json:"scenario"`
	// Spec is the batch range to simulate.
	Spec mc.ChunkSpec `json:"spec"`
	// RoundSize is the accumulation round size (mc.Job.CheckEvery) the
	// chunk must be estimated with.
	RoundSize uint64 `json:"roundSize"`
	// TTL is how long the lease is valid; the coordinator requeues the
	// chunk after it expires.
	TTL duration `json:"ttl"`
	// TraceParent is the W3C trace context of the coordinator-side lease
	// span; the worker parents its chunk span here so one distributed
	// trace covers submit → lease → chunk → merge. Empty when the job is
	// untraced or unsampled.
	TraceParent string `json:"traceparent,omitempty"`
}

// leaseResponse carries at most one lease; nil means no work right now.
type leaseResponse struct {
	Lease *Lease `json:"lease,omitempty"`
}

// completeRequest reports the outcome of a lease: either the chunk's
// sufficient statistics or the error that prevented them.
type completeRequest struct {
	WorkerID string `json:"workerId"`
	LeaseID  string `json:"leaseId"`
	// State is the chunk's sufficient statistics; nil when Error is set.
	State *mc.ChunkState `json:"state,omitempty"`
	// Error is the worker-side failure, if any.
	Error string `json:"error,omitempty"`
}

type completeResponse struct {
	// OK reports whether the result was folded into the job. A false OK
	// with Stale set means the lease had already expired or the job
	// finished — the worker's effort is discarded, not an error.
	OK    bool `json:"ok"`
	Stale bool `json:"stale,omitempty"`
}

// Status is the coordinator's operational snapshot, served at PathStatus
// and surfaced through the service health endpoint.
type Status struct {
	// WorkersRegistered counts workers that have registered and not been
	// dropped or excluded.
	WorkersRegistered int `json:"workersRegistered"`
	// WorkersLive counts registered workers seen within the heartbeat
	// window.
	WorkersLive int `json:"workersLive"`
	// WorkersExcluded counts workers banned for repeated failures.
	WorkersExcluded int `json:"workersExcluded"`
	// ActiveJobs counts evaluations currently fanned out.
	ActiveJobs int `json:"activeJobs"`
	// QueuedChunks counts chunks waiting for a lease across all jobs.
	QueuedChunks int `json:"queuedChunks"`
	// LeasedChunks counts chunks currently out on lease.
	LeasedChunks int `json:"leasedChunks"`
	// RecoveredJobs counts journal-restored jobs awaiting adoption by a
	// re-submitted evaluation (see docs/cluster.md, "Failure model").
	RecoveredJobs int `json:"recoveredJobs,omitempty"`
	// Draining reports that the coordinator has stopped handing out
	// leases ahead of a graceful shutdown.
	Draining bool `json:"draining,omitempty"`
}

// duration marshals a time.Duration as its string form ("1.5s"), keeping
// the JSON wire format human-readable and stdlib-only.
type duration time.Duration

func (d duration) MarshalJSON() ([]byte, error) {
	return []byte(`"` + time.Duration(d).String() + `"`), nil
}

func (d *duration) UnmarshalJSON(b []byte) error {
	if len(b) >= 2 && b[0] == '"' && b[len(b)-1] == '"' {
		v, err := time.ParseDuration(string(b[1 : len(b)-1]))
		if err != nil {
			return err
		}
		*d = duration(v)
		return nil
	}
	// Tolerate bare nanosecond numbers from hand-written clients.
	ns, err := strconv.ParseInt(string(b), 10, 64)
	if err != nil {
		return err
	}
	*d = duration(ns)
	return nil
}
