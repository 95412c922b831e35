package resultstore

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"ahs/internal/segment"
)

// The claims region of a store directory fences duplicate evaluation
// across the processes sharing it. Where results.seg records what has been
// computed, claims.seg records what is being computed and by whom: before
// evaluating a scenario, a fleet member writes a claim; peers that see a
// live claim for the same hash redirect to the owner instead of
// re-evaluating. Claims are heartbeat-renewed and carry a TTL, so a
// kill -9'd owner's claims expire and a survivor re-claims (a "steal") —
// the work is adopted, never lost and never duplicated among live members.
//
// On-disk layout (inside the store directory, next to results.seg):
//
//	claims.seg    append-only segment of CRC-framed claim records
//	claims.lock   flock'd around each mutation (multi-writer discipline)
//	epoch         the persisted fencing epoch, advanced on writer promotion
//	writer.json   the current writer's heartbeat (owner, URL, epoch, expiry)
//
// claims.seg is an internal/segment log of JSON claim records, like
// results.seg, but without its single-writer rule: every fleet member
// appends claims. Mutual exclusion is per operation — take the flock on
// claims.lock, reconcile the in-memory index with the file (including
// truncating a torn tail a crashed appender left), append, and release.
// flock dies with the process, so a member crashing inside an operation
// can never wedge the region.
//
// The epoch file is the fencing authority: it only ever increases, and it
// only changes under the results-segment writer flock (at startup and at
// promotion), so exactly one process can advance it. Writers reject result
// puts stamped with an older epoch — a resurrected or lagging member
// cannot overwrite state it no longer owns. See internal/fleet for the
// protocol that consumes these primitives.

// File names of the claims region inside a store directory.
const (
	claimsSegName  = "claims.seg"
	claimsLockName = "claims.lock"
	epochName      = "epoch"
	writerInfoName = "writer.json"
)

// Claim operations recorded in the segment.
const (
	opClaim   = "claim"
	opRenew   = "renew"
	opRelease = "release"
)

// ErrClaimHeld reports an Acquire that lost to a live, unexpired claim by
// another owner. The returned ClaimState names the holder.
var ErrClaimHeld = errors.New("resultstore: scenario is claimed by another owner")

// claimRecord is the JSON payload of one claims.seg frame.
type claimRecord struct {
	Key   string `json:"key"`
	Owner string `json:"owner"`
	URL   string `json:"url,omitempty"`
	Epoch uint64 `json:"epoch"`
	Op    string `json:"op"`
	// Expires is the claim deadline in Unix nanoseconds; a claim past it
	// is dead and re-claimable.
	Expires int64 `json:"expires"`
	// Scenario is the claimed scenario's canonical JSON, carried on
	// opClaim records so any surviving member can re-evaluate adopted
	// work without the original submitter.
	Scenario json.RawMessage `json:"scenario,omitempty"`
}

// ClaimState is the live state of one claim.
type ClaimState struct {
	Key      string
	Owner    string
	URL      string
	Epoch    uint64
	Expires  time.Time
	Scenario json.RawMessage
}

// Expired reports whether the claim's TTL has lapsed at now.
func (c ClaimState) Expired(now time.Time) bool { return now.After(c.Expires) }

// ClaimsConfig configures OpenClaims. Only Dir and Owner are required.
type ClaimsConfig struct {
	// Dir is the store directory (shared with the result segments).
	Dir string
	// Owner is this process's claim identity; Acquire and Release act on
	// its behalf.
	Owner string
	// URL is the owner's advertised base URL, recorded on claims so peers
	// can redirect readers to the evaluating instance.
	URL string
	// CompactMinRecords is the dead-record threshold for automatic
	// compaction (default 256): once more than this many dead records
	// exist and they outnumber live claims, the segment is rewritten.
	CompactMinRecords int
	// Logf, when non-nil, receives operational log lines.
	Logf func(format string, args ...any)
	// Hook, when non-nil, is called at the named internal site
	// "claims.post-append" while the claims flock is held; chaos tests
	// crash a member there. Production leaves it nil.
	Hook func(site string)
}

// Claims is a handle on a store directory's claims region. All methods
// are safe for concurrent use within the process; cross-process mutual
// exclusion is the per-operation flock.
type Claims struct {
	cfg ClaimsConfig

	mu     sync.Mutex
	seg    *segment.Log // opened under the flock by the first operation
	index  map[string]ClaimState
	live   int
	dead   int // superseded/released record count since last compaction
	closed bool
}

// OpenClaims opens (creating if needed) the claims region of dir. Unlike
// the result store there is no writer/follower distinction: every opener
// may claim.
func OpenClaims(cfg ClaimsConfig) (*Claims, error) {
	if cfg.Dir == "" {
		return nil, errors.New("resultstore: ClaimsConfig.Dir is required")
	}
	if cfg.Owner == "" {
		return nil, errors.New("resultstore: ClaimsConfig.Owner is required")
	}
	if cfg.CompactMinRecords <= 0 {
		cfg.CompactMinRecords = 256
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("resultstore: claims dir: %w", err)
	}
	return &Claims{cfg: cfg, index: make(map[string]ClaimState)}, nil
}

// decodeClaim is the claims segment's record codec: it rejects payloads
// that are not a claim record naming key, owner and op.
func decodeClaim(payload []byte) (claimRecord, bool) {
	var rec claimRecord
	if err := json.Unmarshal(payload, &rec); err != nil || rec.Key == "" || rec.Owner == "" || rec.Op == "" {
		return rec, false
	}
	return rec, true
}

// withLock runs fn with the cross-process claims flock held and the
// in-memory index reconciled with the segment on disk (reopening it if a
// peer compacted, truncating a torn tail a crashed peer left). fn runs
// with c.mu held too.
func (c *Claims) withLock(fn func() error) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return ErrClosed
	}
	lockPath := filepath.Join(c.cfg.Dir, claimsLockName)
	lock, err := segment.AcquireLockBlocking(lockPath)
	if err != nil {
		return err
	}
	defer segment.ReleaseLock(lock)
	if err := c.reconcileLocked(); err != nil {
		return err
	}
	return fn()
}

// reconcileLocked brings the index up to date with the segment file; the
// claims flock and c.mu must be held. It (re)opens the segment on first use
// and after a peer compacted it, and cuts a torn tail a crashed peer left:
// we hold the flock, so no live peer is mid-write.
func (c *Claims) reconcileLocked() error {
	if c.seg != nil {
		replaced, err := c.seg.Replaced()
		if err != nil {
			return err
		}
		if !replaced {
			sc, err := c.seg.CatchUp(c.applyFrame)
			c.logCut(sc)
			return err
		}
		c.seg.Close()
		c.seg = nil
		c.index = make(map[string]ClaimState)
		c.live, c.dead = 0, 0
	}
	seg, sc, err := segment.Open(filepath.Join(c.cfg.Dir, claimsSegName), false, c.applyFrame)
	if err != nil {
		return fmt.Errorf("resultstore: open claims segment: %w", err)
	}
	c.seg = seg
	c.logCut(sc)
	return nil
}

// applyFrame is the segment decoder: it folds one claim record into the
// index and rejects any other payload.
func (c *Claims) applyFrame(fr segment.Frame) bool {
	rec, ok := decodeClaim(fr.Payload)
	if ok {
		c.applyLocked(rec)
	}
	return ok
}

func (c *Claims) logCut(sc segment.Scanned) {
	if sc.Cut > 0 {
		c.cfg.Logf("resultstore: claims: dropping %d torn trailing bytes", sc.Cut)
	}
}

// applyLocked folds one record into the index.
func (c *Claims) applyLocked(rec claimRecord) {
	switch rec.Op {
	case opRelease:
		if _, ok := c.index[rec.Key]; ok {
			delete(c.index, rec.Key)
			c.live--
			c.dead += 2 // the claim and its release are both dead
		} else {
			c.dead++
		}
	case opClaim, opRenew:
		prev, had := c.index[rec.Key]
		next := ClaimState{
			Key:      rec.Key,
			Owner:    rec.Owner,
			URL:      rec.URL,
			Epoch:    rec.Epoch,
			Expires:  time.Unix(0, rec.Expires),
			Scenario: rec.Scenario,
		}
		if rec.Op == opRenew && had {
			// Renewals extend the deadline but never resurrect the
			// scenario payload, which only rides the claim record.
			if len(next.Scenario) == 0 {
				next.Scenario = prev.Scenario
			}
		}
		if had {
			c.dead++
		} else {
			c.live++
		}
		c.index[rec.Key] = next
	}
}

// appendLocked appends one record; the claims flock and c.mu must be held
// (reconcileLocked already ran).
func (c *Claims) appendLocked(rec claimRecord) error {
	payload, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("resultstore: encode claim: %w", err)
	}
	if _, err := c.seg.Append(payload, nil); err != nil {
		return fmt.Errorf("resultstore: claims append: %w", err)
	}
	c.applyLocked(rec)
	c.hook("claims.post-append")
	if c.dead > c.cfg.CompactMinRecords && c.dead > c.live {
		if err := c.compactLocked(); err != nil {
			c.cfg.Logf("resultstore: claims compaction failed: %v", err)
		}
	}
	return nil
}

// Acquire claims key for this owner under the given epoch, recording the
// scenario's canonical JSON for adoption. Outcomes:
//
//   - no claim, an expired claim, or our own claim → claimed (renewed);
//     stole reports whether an expired peer claim was taken over.
//   - a live claim by another owner → ErrClaimHeld; the returned state
//     names the holder and its advertised URL.
func (c *Claims) Acquire(key string, epoch uint64, ttl time.Duration, scenario json.RawMessage) (state ClaimState, stole bool, err error) {
	if key == "" {
		return ClaimState{}, false, errors.New("resultstore: empty claim key")
	}
	err = c.withLock(func() error {
		now := time.Now()
		cur, ok := c.index[key]
		if ok && cur.Owner != c.cfg.Owner && !cur.Expired(now) {
			state = cur
			return ErrClaimHeld
		}
		stole = ok && cur.Owner != c.cfg.Owner
		rec := claimRecord{
			Key:      key,
			Owner:    c.cfg.Owner,
			URL:      c.cfg.URL,
			Epoch:    epoch,
			Op:       opClaim,
			Expires:  now.Add(ttl).UnixNano(),
			Scenario: scenario,
		}
		if len(rec.Scenario) == 0 && ok {
			rec.Scenario = cur.Scenario
		}
		if err := c.appendLocked(rec); err != nil {
			return err
		}
		state = c.index[key]
		return nil
	})
	return state, stole, err
}

// Renew extends the deadline of claims this owner holds. Keys no longer
// owned (released, or stolen after expiry) are reported in lost rather
// than renewed — the caller should stop working on them.
func (c *Claims) Renew(keys []string, epoch uint64, ttl time.Duration) (lost []string, err error) {
	if len(keys) == 0 {
		return nil, nil
	}
	err = c.withLock(func() error {
		now := time.Now()
		for _, key := range keys {
			cur, ok := c.index[key]
			if !ok || cur.Owner != c.cfg.Owner {
				lost = append(lost, key)
				continue
			}
			rec := claimRecord{
				Key:     key,
				Owner:   c.cfg.Owner,
				URL:     c.cfg.URL,
				Epoch:   epoch,
				Op:      opRenew,
				Expires: now.Add(ttl).UnixNano(),
			}
			if err := c.appendLocked(rec); err != nil {
				return err
			}
		}
		return nil
	})
	return lost, err
}

// Release drops this owner's claim on key; a claim now held by someone
// else is left alone. Releasing an unclaimed key is a no-op.
func (c *Claims) Release(key string) error {
	return c.withLock(func() error {
		cur, ok := c.index[key]
		if !ok || cur.Owner != c.cfg.Owner {
			return nil
		}
		return c.appendLocked(claimRecord{
			Key:     key,
			Owner:   c.cfg.Owner,
			Op:      opRelease,
			Expires: time.Now().UnixNano(),
		})
	})
}

// Get returns the current claim on key, refreshing from disk first.
func (c *Claims) Get(key string) (ClaimState, bool, error) {
	var state ClaimState
	var ok bool
	err := c.withLock(func() error {
		state, ok = c.index[key]
		return nil
	})
	return state, ok, err
}

// Snapshot returns every live claim, refreshed from disk. Promotion uses
// it to find claimed-but-unfinished work to adopt.
func (c *Claims) Snapshot() ([]ClaimState, error) {
	var out []ClaimState
	err := c.withLock(func() error {
		out = make([]ClaimState, 0, len(c.index))
		for _, st := range c.index {
			out = append(out, st)
		}
		return nil
	})
	return out, err
}

// Len reports the number of live claims (as of the last reconciliation;
// no disk access).
func (c *Claims) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.index)
}

// compactLocked rewrites live claims into a fresh segment under the held
// flock, dropping released and superseded records. Peers detect the
// rename through Replaced on their next operation.
func (c *Claims) compactLocked() error {
	err := c.seg.Rewrite(func(w io.Writer) error {
		for _, st := range c.index {
			payload, err := json.Marshal(claimRecord{
				Key:      st.Key,
				Owner:    st.Owner,
				URL:      st.URL,
				Epoch:    st.Epoch,
				Op:       opClaim,
				Expires:  st.Expires.UnixNano(),
				Scenario: st.Scenario,
			})
			if err != nil {
				return err
			}
			frame, err := segment.Encode(payload)
			if err != nil {
				return err
			}
			if _, err := w.Write(frame); err != nil {
				return err
			}
		}
		return nil
	}, nil)
	if err != nil {
		return err
	}
	// The index is unchanged; only the records behind it were rewritten.
	c.live = len(c.index)
	c.dead = 0
	c.cfg.Logf("resultstore: compacted claims on %s to %d live claims", c.cfg.Dir, c.live)
	return nil
}

// Close closes the claims handle. Held claims stay on disk and expire by
// TTL; a graceful shutdown should Release them first.
func (c *Claims) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil
	}
	c.closed = true
	if c.seg == nil {
		return nil
	}
	return c.seg.Close()
}

// Abandon simulates kill -9 for chaos tests: the handle is closed with no
// release of held claims, which therefore linger until their TTL lapses —
// exactly the window fleet steal/adoption exists to cover.
func (c *Claims) Abandon() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return
	}
	c.closed = true
	if c.seg != nil {
		c.seg.Close()
	}
}

// hook fires the configured fault-site hook, if any.
func (c *Claims) hook(site string) {
	if c.cfg.Hook != nil {
		c.cfg.Hook(site)
	}
}

// Epoch and writer-heartbeat files ------------------------------------------

// epochDoc is the persisted fencing epoch.
type epochDoc struct {
	Epoch uint64 `json:"epoch"`
	Owner string `json:"owner,omitempty"`
	// Advanced is the RFC3339 time of the last advance, for operators.
	Advanced string `json:"advanced,omitempty"`
}

// CurrentEpoch reads the persisted fencing epoch of dir; 0 when none has
// ever been advanced.
func CurrentEpoch(dir string) (uint64, error) {
	data, err := os.ReadFile(filepath.Join(dir, epochName))
	if errors.Is(err, os.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("resultstore: read epoch: %w", err)
	}
	var doc epochDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		return 0, fmt.Errorf("resultstore: decode epoch: %w", err)
	}
	return doc.Epoch, nil
}

// AdvanceEpoch persists epoch+1 under owner's name and returns it. The
// write is atomic (tmp + fsync + rename). The caller MUST hold the
// directory's writer flock — that is what makes the epoch single-writer
// and monotonic; internal/fleet advances it only from a store that just
// won (or already holds) the writer lock.
func AdvanceEpoch(dir, owner string) (uint64, error) {
	cur, err := CurrentEpoch(dir)
	if err != nil {
		return 0, err
	}
	next := cur + 1
	doc := epochDoc{Epoch: next, Owner: owner, Advanced: time.Now().UTC().Format(time.RFC3339Nano)}
	if err := writeJSON(dir, epochName, doc); err != nil {
		return 0, err
	}
	return next, nil
}

// WriterInfo is the current writer's heartbeat document, rewritten every
// heartbeat interval so followers can tell a live writer from a dead one
// and know where to forward result puts.
type WriterInfo struct {
	Owner string `json:"owner"`
	URL   string `json:"url,omitempty"`
	Epoch uint64 `json:"epoch"`
	// Expires is the heartbeat deadline in Unix nanoseconds; past it the
	// writer is presumed dead and followers race to promote.
	Expires int64 `json:"expires"`
}

// Expired reports whether the heartbeat has lapsed at now.
func (w WriterInfo) Expired(now time.Time) bool {
	return now.UnixNano() > w.Expires
}

// WriteWriterInfo atomically rewrites dir's writer heartbeat.
func WriteWriterInfo(dir string, info WriterInfo) error {
	return writeJSON(dir, writerInfoName, info)
}

// ReadWriterInfo reads dir's writer heartbeat; ok is false when no writer
// has ever heartbeated.
func ReadWriterInfo(dir string) (WriterInfo, bool, error) {
	data, err := os.ReadFile(filepath.Join(dir, writerInfoName))
	if errors.Is(err, os.ErrNotExist) {
		return WriterInfo{}, false, nil
	}
	if err != nil {
		return WriterInfo{}, false, fmt.Errorf("resultstore: read writer info: %w", err)
	}
	var info WriterInfo
	if err := json.Unmarshal(data, &info); err != nil {
		return WriterInfo{}, false, fmt.Errorf("resultstore: decode writer info: %w", err)
	}
	return info, true, nil
}

// writeJSON atomically replaces dir/name with v's JSON encoding.
func writeJSON(dir, name string, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return segment.Rewrite(filepath.Join(dir, name), func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	}, nil)
}
