// Package fleet coordinates N ahs-serve instances sharing one result-store
// directory into a single logical evaluation queue with exactly-once
// semantics and writer failover.
//
// The store directory already gave a fleet shared *results* (one flock
// writer, many followers); fleet adds shared *work*. Three on-disk
// primitives from internal/resultstore carry the whole protocol:
//
//   - the claims segment: before evaluating a scenario, a node claims its
//     hash. Peers that lose the claim race redirect the submitter to the
//     owner instead of evaluating again — the fleet-wide analogue of the
//     in-process dedup table. Claims are heartbeat-renewed with a TTL, so
//     a kill -9'd node's claims expire and survivors adopt the work.
//   - the fencing epoch: a persisted counter advanced only under the
//     store's writer flock — at writer startup and at promotion. Every
//     result put is stamped with the putter's epoch; the writer rejects
//     stale-epoch puts, so a node acting on a superseded view of the
//     fleet can never corrupt the store. Rejections are counted, not
//     retried blindly: the sender refreshes its epoch and re-stamps while
//     it still owns the claim.
//   - the writer heartbeat (writer.json): rewritten every interval by the
//     writer. Followers use it to find the writer (result puts are
//     forwarded to its URL) and to detect its death: a released flock
//     alone is not enough to promote — the heartbeat must also be stale —
//     so a writer bouncing through restart keeps its role.
//
// Failover: when the writer dies, followers race Store.Promote. Exactly
// one wins the freed flock, replays the segment (truncating any torn
// tail), advances the epoch, adopts claimed-but-unfinished work (claim
// records carry the scenario JSON precisely so survivors can re-evaluate
// without the original submitter), and starts heartbeating as the writer.
// The roles a node moves through — follower, promoting, writer — are
// served in /healthz and the ahs_fleet_role gauge.
package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"sync"
	"time"

	"ahs/internal/resultstore"
	"ahs/internal/segment"
	"ahs/internal/telemetry"
)

// Role names a node's position in the fleet.
type Role string

// The roles a node moves through. A node born holding the writer flock
// starts as RoleWriter; everyone else starts as RoleFollower and only
// passes through RolePromoting on the way up.
const (
	RoleFollower  Role = "follower"
	RolePromoting Role = "promoting"
	RoleWriter    Role = "writer"
)

// Fleet HTTP protocol constants. The ingest endpoint is mounted by
// cmd/ahs-serve next to /cluster/v1/; followers POST finished results
// there instead of writing the (read-only to them) segment directly.
const (
	// PathResults is the writer's result-ingest endpoint.
	PathResults = "/fleet/v1/results"
	// PathInfo reports a node's role, epoch and identity.
	PathInfo = "/fleet/v1/info"
	// HeaderEpoch carries the sender's fencing epoch on a result put.
	HeaderEpoch = "X-AHS-Fleet-Epoch"
	// HeaderOwner carries the sender's claim identity on a result put.
	HeaderOwner = "X-AHS-Fleet-Owner"
)

// ErrFenced reports a result put rejected by the writer's fencing check:
// the sender's epoch was stale, or it no longer owns the claim it was
// completing. The result is discarded; the current claim owner (or the
// adopting writer) re-evaluates.
var ErrFenced = errors.New("fleet: result put fenced by the writer")

// Config configures a Node. Dir, Store and URL are required.
type Config struct {
	// Dir is the shared store directory.
	Dir string
	// Owner is this node's fleet identity (default "pid-<PID>"); it names
	// the node in claims, the writer heartbeat and lock-contention errors.
	Owner string
	// URL is this node's advertised base URL (scheme://host:port).
	// Claims carry it so peers can redirect submitters here, and the
	// writer heartbeat carries it so followers can forward result puts.
	URL string
	// Store is the shared result store, opened writer or follower by the
	// caller; the node takes over role management (Promote) but not
	// lifecycle (Close).
	Store *resultstore.Store
	// Heartbeat is the writer-heartbeat and claim-renewal interval
	// (default 500ms). A writer whose heartbeat is older than 4 intervals
	// is presumed dead.
	Heartbeat time.Duration
	// ClaimTTL is the claim expiry (default 8×Heartbeat). It bounds how
	// long a crashed node's in-flight work stays unavailable.
	ClaimTTL time.Duration
	// Submit, when non-nil, receives adopted scenarios — claimed by a
	// dead node, unfinished, inherited at promotion — for re-evaluation.
	// cmd/ahs-serve wires it to the service manager's submit path.
	Submit func(scenario json.RawMessage)
	// Telemetry, when non-nil, receives the ahs_fleet_* families.
	Telemetry *telemetry.Registry
	// Logf, when non-nil, receives operational log lines.
	Logf func(format string, args ...any)
	// Client is the HTTP client for forwarding puts to the writer
	// (default: a 5s-timeout client).
	Client *http.Client
	// ClaimsHook forwards to ClaimsConfig.Hook (chaos tests only).
	ClaimsHook func(site string)
}

// Node is one fleet member. Create with New, drive with Run, integrate
// with TryClaim/Release/PutResult (the service layer) and Handler (the
// HTTP layer).
type Node struct {
	cfg     Config
	claims  *resultstore.Claims
	metrics metrics

	mu      sync.Mutex
	role    Role
	epoch   uint64 // last epoch this node observed (its own, as writer)
	writer  resultstore.WriterInfo
	owned   map[string]bool   // claims this node holds
	pending map[string][]byte // finished results awaiting a successful forward
}

// New opens the claims region of cfg.Dir and determines the starting
// role from the store handle: a writer store means this node IS the
// writer — it advances the fencing epoch and starts heartbeating; a
// follower store starts as a follower.
func New(cfg Config) (*Node, error) {
	if cfg.Dir == "" || cfg.Store == nil || cfg.URL == "" {
		return nil, errors.New("fleet: Config.Dir, Store and URL are required")
	}
	if cfg.Owner == "" {
		cfg.Owner = fmt.Sprintf("pid-%d", os.Getpid())
	}
	if cfg.Heartbeat <= 0 {
		cfg.Heartbeat = 500 * time.Millisecond
	}
	if cfg.ClaimTTL <= 0 {
		cfg.ClaimTTL = 8 * cfg.Heartbeat
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	if cfg.Client == nil {
		cfg.Client = &http.Client{Timeout: 5 * time.Second}
	}
	claims, err := resultstore.OpenClaims(resultstore.ClaimsConfig{
		Dir:   cfg.Dir,
		Owner: cfg.Owner,
		URL:   cfg.URL,
		Logf:  cfg.Logf,
		Hook:  cfg.ClaimsHook,
	})
	if err != nil {
		return nil, err
	}
	n := &Node{
		cfg:     cfg,
		claims:  claims,
		owned:   make(map[string]bool),
		pending: make(map[string][]byte),
	}
	n.metrics = newMetrics(cfg.Telemetry, n)
	if !cfg.Store.ReadOnly() {
		// Born writer: every writer incarnation gets a fresh epoch, so a
		// restart fences anything stamped before the crash.
		epoch, err := resultstore.AdvanceEpoch(cfg.Dir, cfg.Owner)
		if err != nil {
			claims.Close()
			return nil, err
		}
		n.role = RoleWriter
		n.epoch = epoch
		if err := n.writeHeartbeat(); err != nil {
			claims.Close()
			return nil, err
		}
		cfg.Logf("fleet: %s is the writer under epoch %d", cfg.Owner, epoch)
	} else {
		n.role = RoleFollower
		n.refreshView()
		cfg.Logf("fleet: %s following writer %s (epoch %d)", cfg.Owner, n.writer.Owner, n.epoch)
	}
	n.metrics.observeRole(n.role)
	n.metrics.observeEpoch(n.epoch)
	return n, nil
}

// Run drives heartbeats, claim renewal, failover detection and pending-put
// retries until ctx is cancelled. Call it in a goroutine.
func (n *Node) Run(ctx context.Context) {
	ticker := time.NewTicker(n.cfg.Heartbeat)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			n.shutdown()
			return
		case <-ticker.C:
			n.Tick()
		}
	}
}

// Tick runs one maintenance round: heartbeat (writer) or failover check
// (follower), claim renewal, pending-put retries. Exported so tests can
// drive the node without real time.
func (n *Node) Tick() {
	n.mu.Lock()
	role := n.role
	n.mu.Unlock()
	switch role {
	case RoleWriter:
		if err := n.writeHeartbeat(); err != nil {
			n.cfg.Logf("fleet: heartbeat write failed: %v", err)
		}
		// The adoption sweep runs every writer tick, not just at
		// promotion: a claim that outlived its owner (a crashed follower,
		// or claims that had not yet expired when this node promoted)
		// becomes adoptable only once its TTL lapses, whenever that is.
		n.adopt()
	case RoleFollower:
		n.refreshView()
		n.maybePromote()
	}
	n.renewOwned()
	n.flushPending()
}

// shutdown releases held claims so peers need not wait out the TTL.
// Best-effort: a kill -9 skips it, which is what the TTL is for.
func (n *Node) shutdown() {
	n.mu.Lock()
	keys := make([]string, 0, len(n.owned))
	for k := range n.owned {
		keys = append(keys, k)
	}
	n.owned = make(map[string]bool)
	n.mu.Unlock()
	for _, k := range keys {
		if err := n.claims.Release(k); err != nil {
			n.cfg.Logf("fleet: shutdown release of %s failed: %v", k, err)
		}
	}
}

// Role reports the node's current role.
func (n *Node) Role() string {
	n.mu.Lock()
	defer n.mu.Unlock()
	return string(n.role)
}

// Epoch reports the node's current view of the fencing epoch.
func (n *Node) Epoch() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.epoch
}

// Health returns the node's health document, merged into GET /healthz by
// cmd/ahs-serve: role, epoch, identity, claim and pending counts, and the
// writer this node believes in.
func (n *Node) Health() map[string]any {
	n.mu.Lock()
	defer n.mu.Unlock()
	h := map[string]any{
		"role":    string(n.role),
		"epoch":   n.epoch,
		"owner":   n.cfg.Owner,
		"url":     n.cfg.URL,
		"claims":  len(n.owned),
		"pending": len(n.pending),
	}
	if n.role != RoleWriter && n.writer.Owner != "" {
		h["writer"] = map[string]any{"owner": n.writer.Owner, "url": n.writer.URL, "epoch": n.writer.Epoch}
	}
	return h
}

// TryClaim claims hash for this node, recording scenario for adoption.
// acquired=false with a non-empty holderURL means a live peer owns it —
// the caller should redirect the submitter there instead of evaluating.
func (n *Node) TryClaim(hash string, scenario []byte) (acquired bool, holderURL string, err error) {
	n.mu.Lock()
	epoch := n.epoch
	n.mu.Unlock()
	st, stole, err := n.claims.Acquire(hash, epoch, n.cfg.ClaimTTL, scenario)
	if errors.Is(err, resultstore.ErrClaimHeld) {
		n.metrics.conflicts.Inc()
		return false, st.URL, nil
	}
	if err != nil {
		return false, "", err
	}
	n.metrics.claims.Inc()
	if stole {
		n.metrics.steals.Inc()
		n.cfg.Logf("fleet: %s stole expired claim on %s", n.cfg.Owner, hash)
	}
	n.mu.Lock()
	n.owned[hash] = true
	n.mu.Unlock()
	return true, "", nil
}

// Release drops this node's claim on hash (evaluation failed or was
// cancelled; the work is up for grabs again).
func (n *Node) Release(hash string) {
	n.mu.Lock()
	delete(n.owned, hash)
	delete(n.pending, hash)
	n.mu.Unlock()
	if err := n.claims.Release(hash); err != nil {
		n.cfg.Logf("fleet: release of %s failed: %v", hash, err)
	}
}

// PutResult persists a finished result fleet-wide and releases the claim.
// The writer writes the segment directly; a follower forwards to the
// writer's advertised URL. A forward that fails transiently parks the
// result in the pending queue — the claim stays held and renewed, so no
// peer duplicates the work while the writer is unreachable — and retries
// each tick. A fenced forward (stale epoch, lost claim) returns ErrFenced
// and drops the claim: the result is superseded, not retryable.
func (n *Node) PutResult(hash string, value []byte) error {
	n.mu.Lock()
	role := n.role
	epoch := n.epoch
	n.mu.Unlock()
	if role == RoleWriter {
		if err := n.cfg.Store.Put(hash, json.RawMessage(value)); err != nil {
			return err
		}
		n.finishPut(hash)
		return nil
	}
	err := n.forwardPut(hash, value, epoch)
	switch {
	case err == nil:
		n.finishPut(hash)
		return nil
	case errors.Is(err, ErrFenced):
		n.metrics.fencedOut.Inc()
		n.Release(hash)
		return err
	default:
		n.cfg.Logf("fleet: forwarding result for %s failed (queued for retry): %v", hash, err)
		n.mu.Lock()
		n.pending[hash] = value
		n.mu.Unlock()
		return nil
	}
}

// finishPut releases the claim after a successful persist — the ordering
// that guarantees every scenario is always covered by a claim or a store
// entry, never neither.
func (n *Node) finishPut(hash string) {
	n.mu.Lock()
	delete(n.owned, hash)
	delete(n.pending, hash)
	n.mu.Unlock()
	if err := n.claims.Release(hash); err != nil {
		n.cfg.Logf("fleet: post-put release of %s failed: %v", hash, err)
	}
}

// forwardPut POSTs one finished result to the writer.
func (n *Node) forwardPut(hash string, value []byte, epoch uint64) error {
	n.mu.Lock()
	writerURL := n.writer.URL
	n.mu.Unlock()
	if writerURL == "" {
		return errors.New("fleet: no writer known")
	}
	req, err := http.NewRequest(http.MethodPost, writerURL+PathResults+"?hash="+hash, bytes.NewReader(value))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(HeaderEpoch, fmt.Sprint(epoch))
	req.Header.Set(HeaderOwner, n.cfg.Owner)
	resp, err := n.cfg.Client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK, http.StatusCreated:
		n.metrics.forwarded.Inc()
		return nil
	case http.StatusConflict:
		return ErrFenced
	default:
		return fmt.Errorf("fleet: writer answered %s", resp.Status)
	}
}

// refreshView re-reads the writer heartbeat and fencing epoch. A follower
// whose epoch view advances here re-stamps its pending work before the
// next forward, which is how a put that raced a promotion recovers
// instead of staying fenced.
func (n *Node) refreshView() {
	info, ok, err := resultstore.ReadWriterInfo(n.cfg.Dir)
	if err != nil {
		n.cfg.Logf("fleet: reading writer info failed: %v", err)
		return
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if ok {
		n.writer = info
		if info.Epoch > n.epoch {
			n.epoch = info.Epoch
			n.metrics.observeEpoch(n.epoch)
		}
	}
}

// maybePromote checks both failover conditions — stale heartbeat AND
// acquirable flock — and runs the promotion sequence when they hold.
func (n *Node) maybePromote() {
	info, ok, err := resultstore.ReadWriterInfo(n.cfg.Dir)
	if err != nil {
		n.cfg.Logf("fleet: reading writer info failed: %v", err)
		return
	}
	if ok && !info.Expired(time.Now()) {
		return // writer is alive
	}
	n.setRole(RolePromoting)
	if err := n.promote(); err != nil {
		// Lost the race (a peer promoted first) or the writer is back:
		// drop back to following; the next tick re-reads the new world.
		if !errors.Is(err, segment.ErrLocked) {
			n.cfg.Logf("fleet: promotion failed: %v", err)
		}
		n.setRole(RoleFollower)
		return
	}
}

// promote turns this follower into the writer: win the flock and replay
// the segment (Store.Promote), advance the fencing epoch, heartbeat, then
// adopt claimed-but-unfinished work.
func (n *Node) promote() error {
	if err := n.cfg.Store.Promote(); err != nil {
		return err
	}
	epoch, err := resultstore.AdvanceEpoch(n.cfg.Dir, n.cfg.Owner)
	if err != nil {
		return err
	}
	// The metrics change under the same hold that publishes the role, so
	// whoever reads "writer" from Health also scrapes the new epoch and
	// the promotion.
	n.mu.Lock()
	n.role = RoleWriter
	n.epoch = epoch
	n.metrics.promotions.Inc()
	n.metrics.observeRole(RoleWriter)
	n.metrics.observeEpoch(epoch)
	n.mu.Unlock()
	if err := n.writeHeartbeat(); err != nil {
		return err
	}
	n.cfg.Logf("fleet: %s promoted to writer under epoch %d", n.cfg.Owner, epoch)
	n.adopt()
	return nil
}

// adopt sweeps the claims table for dead nodes' unfinished work: expired
// claims whose result never reached the store. Each is re-claimed under
// the new epoch and re-submitted for evaluation through cfg.Submit.
func (n *Node) adopt() {
	snap, err := n.claims.Snapshot()
	if err != nil {
		n.cfg.Logf("fleet: adoption sweep failed: %v", err)
		return
	}
	now := time.Now()
	for _, st := range snap {
		if st.Owner == n.cfg.Owner || !st.Expired(now) {
			continue
		}
		if n.cfg.Store.Has(st.Key) {
			// Finished before the crash; just clear the stale claim.
			continue
		}
		if len(st.Scenario) == 0 {
			n.cfg.Logf("fleet: cannot adopt %s: claim carries no scenario", st.Key)
			continue
		}
		acquired, _, err := n.TryClaim(st.Key, st.Scenario)
		if err != nil || !acquired {
			continue
		}
		n.metrics.adoptions.Inc()
		n.cfg.Logf("fleet: adopted %s from dead node %s", st.Key, st.Owner)
		if n.cfg.Submit != nil {
			n.cfg.Submit(st.Scenario)
		}
	}
}

// renewOwned extends this node's claims; claims reported lost (stolen
// after a missed TTL) are dropped locally so their evaluations' puts
// fence out instead of fighting the thief.
func (n *Node) renewOwned() {
	n.mu.Lock()
	keys := make([]string, 0, len(n.owned))
	for k := range n.owned {
		keys = append(keys, k)
	}
	epoch := n.epoch
	n.mu.Unlock()
	if len(keys) == 0 {
		return
	}
	lost, err := n.claims.Renew(keys, epoch, n.cfg.ClaimTTL)
	if err != nil {
		n.cfg.Logf("fleet: claim renewal failed: %v", err)
		return
	}
	if len(lost) > 0 {
		n.mu.Lock()
		for _, k := range lost {
			delete(n.owned, k)
			delete(n.pending, k)
		}
		n.mu.Unlock()
		n.cfg.Logf("fleet: lost %d claims to peers: %v", len(lost), lost)
	}
}

// flushPending retries parked result forwards.
func (n *Node) flushPending() {
	n.mu.Lock()
	if len(n.pending) == 0 {
		n.mu.Unlock()
		return
	}
	batch := make(map[string][]byte, len(n.pending))
	for k, v := range n.pending {
		batch[k] = v
	}
	role := n.role
	epoch := n.epoch
	n.mu.Unlock()
	for hash, value := range batch {
		if role == RoleWriter {
			// Promoted with puts still parked: write them ourselves.
			if err := n.cfg.Store.Put(hash, json.RawMessage(value)); err != nil {
				n.cfg.Logf("fleet: local flush of %s failed: %v", hash, err)
				continue
			}
			n.finishPut(hash)
			continue
		}
		err := n.forwardPut(hash, value, epoch)
		switch {
		case err == nil:
			n.finishPut(hash)
		case errors.Is(err, ErrFenced):
			n.metrics.fencedOut.Inc()
			n.Release(hash)
		default:
			n.cfg.Logf("fleet: retry forward of %s failed: %v", hash, err)
		}
	}
}

// writeHeartbeat rewrites writer.json with a deadline 4 heartbeats out.
func (n *Node) writeHeartbeat() error {
	n.mu.Lock()
	epoch := n.epoch
	n.mu.Unlock()
	return resultstore.WriteWriterInfo(n.cfg.Dir, resultstore.WriterInfo{
		Owner:   n.cfg.Owner,
		URL:     n.cfg.URL,
		Epoch:   epoch,
		Expires: time.Now().Add(4 * n.cfg.Heartbeat).UnixNano(),
	})
}

func (n *Node) setRole(r Role) {
	n.mu.Lock()
	changed := n.role != r
	n.role = r
	n.mu.Unlock()
	if changed {
		n.metrics.observeRole(r)
		n.cfg.Logf("fleet: %s role -> %s", n.cfg.Owner, r)
	}
}

// Close releases held claims and the claims handle. The store handle
// belongs to the caller.
func (n *Node) Close() error {
	n.shutdown()
	return n.claims.Close()
}
