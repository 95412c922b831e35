package service

import (
	"encoding/json"
	"fmt"

	"ahs/internal/config"
)

// FleetCoordinator is the store-mediated claim layer a multi-instance
// fleet shares (see internal/fleet; *fleet.Node satisfies this
// structurally — the interface is declared here so the service layer
// stays free of the fleet import). With a coordinator configured, the
// submit path's miss order becomes memory → store → claim → store →
// evaluate (the store is re-checked under the claim, since a peer may
// persist and release between the first miss and the claim):
// a scenario no tier holds is claimed fleet-wide before any worker
// touches it, so exactly one instance evaluates it no matter how many
// received the submission.
type FleetCoordinator interface {
	// TryClaim records this instance's intent to evaluate the scenario
	// (canonical JSON in scenario, carried for crash adoption). Not
	// acquired means a live peer holds it; holderURL is that peer's
	// advertised base URL when known.
	TryClaim(hash string, scenario []byte) (acquired bool, holderURL string, err error)
	// Release frees a claim without a result — the job failed, was
	// cancelled, or never made it into the queue — so any peer may
	// re-claim immediately instead of waiting out the TTL.
	Release(hash string)
	// PutResult durably persists a finished result (JSON encoding of
	// the Result) and releases the claim; on a follower this forwards
	// to the writer. A fencing rejection surfaces as an error.
	PutResult(hash string, value []byte) error
}

// PeerClaimedError reports a submission whose scenario a fleet peer is
// already evaluating. The HTTP layer turns it into a 307 redirect to
// the holder (re-POSTing there lands on the instance that owns the
// job), or a retryable 409 when the holder advertised no URL.
type PeerClaimedError struct {
	Hash string // canonical scenario hash
	URL  string // holder's advertised base URL; may be empty
}

func (e *PeerClaimedError) Error() string {
	if e.URL == "" {
		return fmt.Sprintf("service: scenario %s is claimed by a fleet peer", e.Hash)
	}
	return fmt.Sprintf("service: scenario %s is claimed by fleet peer %s", e.Hash, e.URL)
}

// fleetClaimLocked runs the claim step of the submit path; m.mu must be
// held (the flock inside TryClaim is short-lived — microseconds of file
// I/O — which keeps claim-then-enqueue atomic against a racing submit
// of the same hash on this instance). A claim-layer error fails open:
// losing dedup costs a redundant evaluation, failing the submission
// costs availability, and the store put still coalesces at persist
// time.
func (m *Manager) fleetClaimLocked(sc *config.Scenario, hash string) error {
	if m.cfg.Fleet == nil {
		return nil
	}
	payload, err := json.Marshal(sc.Canonical())
	if err != nil {
		return fmt.Errorf("service: encoding scenario for fleet claim: %w", err)
	}
	acquired, holder, err := m.cfg.Fleet.TryClaim(hash, payload)
	if err != nil {
		m.cfg.Logf("service: fleet claim for %s failed, evaluating locally: %v", hash, err)
		return nil
	}
	if !acquired {
		return &PeerClaimedError{Hash: hash, URL: holder}
	}
	return nil
}

// fleetRelease frees the claim on a job that ended without a result.
func (m *Manager) fleetRelease(hash string) {
	if m.cfg.Fleet != nil {
		m.cfg.Fleet.Release(hash)
	}
}

// persistResult writes a finished Result to the durable tier. With a
// fleet coordinator the write goes through it — PutResult persists (or
// forwards to the writer) and releases the claim only after the result
// is safe, the fleet's exactly-once ledger entry. Without one, the
// plain store write-through applies. Errors are logged, not returned:
// the result is already in memory and served; a fenced put means a peer
// superseded this evaluation and its (bit-identical) result is already
// durable.
func (m *Manager) persistResult(hash string, res *Result) {
	if m.cfg.Fleet == nil {
		m.storePut(hash, res)
		return
	}
	raw, err := json.Marshal(res)
	if err != nil {
		m.cfg.Logf("service: encoding result %s for fleet put: %v", hash, err)
		m.fleetRelease(hash)
		return
	}
	if err := m.cfg.Fleet.PutResult(hash, raw); err != nil {
		m.cfg.Logf("service: fleet put for %s: %v", hash, err)
	}
}

// JobByHash returns the live (queued or running) job evaluating the
// canonical scenario hash, if any. Terminal jobs are not indexed by
// hash — their results live in the cache tiers; see StoredResult.
func (m *Manager) JobByHash(hash string) (JobView, bool) {
	m.mu.Lock()
	j, ok := m.byHash[hash]
	m.mu.Unlock()
	if !ok {
		return JobView{}, false
	}
	return j.view(), true
}

// StoredResult looks a canonical scenario hash up in the result tiers:
// the in-memory LRU first, then the persistent store. It backs
// GET /v1/scenarios/{hash}, which must answer for results computed by
// any fleet member, not just jobs this instance ran.
func (m *Manager) StoredResult(hash string) (*Result, bool) {
	if res, ok := m.cache.Get(hash); ok {
		return res, true
	}
	return m.storeGet(hash)
}
