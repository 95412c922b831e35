// Package resultstore is a persistent, content-addressed store of finished
// evaluation results, shared across process restarts and across multiple
// ahs-serve instances pointed at the same directory.
//
// Keys are canonical scenario hashes (config.Scenario.Hash), whose space is
// pinned by the config golden test; values are JSON documents (the service
// layer stores its Result). Determinism of the estimator makes the store
// semantically free: for a fixed scenario the curve is bit-identical on
// every machine, so a stored result is indistinguishable from a re-run.
// encoding/json renders float64 with the shortest round-tripping
// representation, so read-back is bit-identical too — proven by the %b
// golden tests.
//
// On-disk layout (inside Config.Dir):
//
//	results.seg   append-only segment of framed records
//	LOCK          flock'd by the single writer; absent/ignored for readers
//
// results.seg is an internal/segment log (framing, torn-tail and
// corruption rules are documented there) whose payloads are JSON records
// {key, value}. The writer cuts a torn tail on open, so appends never
// follow garbage; a CRC-valid frame that is not a record is skipped and
// counted.
//
// A re-Put of an existing key appends a superseding record; the in-memory
// index always points at the newest. Superseded records are dead bytes,
// reclaimed by compaction: live records are rewritten in insertion order
// and the new segment atomically replaces the old one, so a crash leaves
// either the old or the new segment, both complete.
//
// Exactly one writer may own a directory at a time, enforced with a
// non-blocking flock on the LOCK file (released by the kernel on any
// process death, so a kill -9 never wedges the store). Additional
// instances open the same directory with Config.ReadOnly: followers take
// no lock, never truncate, and pick up the writer's appends — and survive
// its compactions — through Refresh.
package resultstore

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"ahs/internal/segment"
	"ahs/internal/telemetry"
)

// Segment and lock file names inside the store directory.
const (
	segmentName = "results.seg"
	lockName    = "LOCK"
)

// Sentinel errors.
var (
	// ErrReadOnly rejects mutations on a follower store.
	ErrReadOnly = errors.New("resultstore: store is read-only")
	// ErrClosed rejects use after Close.
	ErrClosed = errors.New("resultstore: store is closed")
)

// Config configures Open. Only Dir is required.
type Config struct {
	// Dir is the store directory, created if missing.
	Dir string
	// ReadOnly opens the store as a follower: no writer lock, no tail
	// truncation, Put rejected. Refresh picks up the writer's appends.
	ReadOnly bool
	// Owner is a human-readable identity stamped into the writer lock
	// file, so a contending Open can name who holds the directory
	// (default: "pid-<PID>").
	Owner string
	// MaxStale bounds how long a follower serves its last-scanned view:
	// any Get or Has older than this refreshes first, so a long-idle
	// follower cannot serve a pre-compaction (superseded) record
	// indefinitely. 0 means the 2s default; negative disables the bound
	// (misses still refresh, as before).
	MaxStale time.Duration
	// CompactMinDead is the dead-byte threshold below which automatic
	// compaction never triggers (default 1 MiB). Compaction also requires
	// dead bytes to exceed live bytes, so the segment is rewritten at most
	// every time it doubles in waste.
	CompactMinDead int64
	// NoSync skips the per-record fsync. Only benchmarks measuring the
	// non-durability overhead should set it.
	NoSync bool
	// Telemetry, when non-nil, receives the ahs_store_* families.
	Telemetry *telemetry.Registry
	// Logf, when non-nil, receives operational log lines.
	Logf func(format string, args ...any)
	// Hook, when non-nil, is called at named internal sites
	// ("put.pre-sync", "compact.pre-rename") while the store mutex is
	// held. The chaos harness arms faultinject tripwires on it to crash a
	// writer at precisely scheduled points; production leaves it nil.
	Hook func(site string)
}

// defaultMaxStale is the follower staleness bound applied when
// Config.MaxStale is zero.
const defaultMaxStale = 2 * time.Second

// recordLoc locates one live record inside the segment.
type recordLoc struct {
	off   int64 // frame start offset
	size  int64 // framed size (header + payload)
	crc   uint32
	order int // insertion order, preserved by compaction
}

// segRecord is the JSON payload of one frame.
type segRecord struct {
	Key   string          `json:"key"`
	Value json.RawMessage `json:"value"`
}

// Store is the persistent result store. All methods are safe for
// concurrent use. Open with Open, stop with Close.
type Store struct {
	cfg     Config
	metrics *storeMetrics

	mu       sync.Mutex
	readOnly bool         // current role; flips on Promote
	seg      *segment.Log // writable for the writer; nil until a follower sees the file
	lock     *os.File     // held flock'd for the store's lifetime (writer only)
	index    map[string]recordLoc
	dead     int64 // bytes owned by superseded records
	nextOrd  int
	closed   bool

	// lastRefresh is when a follower last reconciled with the segment on
	// disk; reads past MaxStale refresh first.
	lastRefresh time.Time

	compactions int
	lastCompact time.Time
	truncated   int64 // torn/corrupt tail bytes cut at open (writer)
	skipped     int   // CRC-valid but undecodable frames skipped by scans
}

// Stats is the store's operational snapshot, surfaced through GET /healthz
// on cmd/ahs-serve.
type Stats struct {
	Dir      string `json:"dir"`
	ReadOnly bool   `json:"readOnly"`
	// Entries counts distinct keys with a stored result.
	Entries int `json:"entries"`
	// SegmentBytes is the scanned segment length; DeadBytes the portion
	// owned by superseded records (reclaimed by compaction).
	SegmentBytes int64 `json:"segmentBytes"`
	DeadBytes    int64 `json:"deadBytes"`
	// Compactions counts segment rewrites since open.
	Compactions int `json:"compactions"`
	// LastCompaction is the RFC3339 time of the most recent compaction.
	LastCompaction string `json:"lastCompaction,omitempty"`
	// TruncatedBytes counts torn/corrupt tail bytes cut at open.
	TruncatedBytes int64 `json:"truncatedBytes,omitempty"`
	// SkippedRecords counts CRC-valid but undecodable frames ignored.
	SkippedRecords int `json:"skippedRecords,omitempty"`
}

// Open opens (or creates) the store directory, scans the segment — cutting
// a torn or corrupt tail at the last valid frame when writing — and builds
// the in-memory index. A second writer on the same directory fails with
// segment.ErrLocked.
func Open(cfg Config) (*Store, error) {
	if cfg.Dir == "" {
		return nil, errors.New("resultstore: Config.Dir is required")
	}
	if cfg.CompactMinDead <= 0 {
		cfg.CompactMinDead = 1 << 20
	}
	if cfg.MaxStale == 0 {
		cfg.MaxStale = defaultMaxStale
	}
	if cfg.Owner == "" {
		cfg.Owner = fmt.Sprintf("pid-%d", os.Getpid())
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("resultstore: store dir: %w", err)
	}
	s := &Store{
		cfg:         cfg,
		readOnly:    cfg.ReadOnly,
		index:       make(map[string]recordLoc),
		lastRefresh: time.Now(),
	}
	if !cfg.ReadOnly {
		lock, err := segment.AcquireLock(filepath.Join(cfg.Dir, lockName), cfg.Owner)
		if err != nil {
			return nil, err
		}
		s.lock = lock
	}
	if err := s.reindexLocked(!cfg.ReadOnly); err != nil {
		s.release()
		return nil, fmt.Errorf("resultstore: open segment: %w", err)
	}
	s.metrics = newStoreMetrics(cfg.Telemetry, s)
	if len(s.index) > 0 || s.truncated > 0 {
		cfg.Logf("resultstore: %s: %d results (%d segment bytes, %d dead), %d torn bytes cut",
			cfg.Dir, len(s.index), s.sizeLocked(), s.dead, s.truncated)
	}
	return s, nil
}

// release closes held file handles; used on Open error paths.
func (s *Store) release() {
	if s.seg != nil {
		s.seg.Close()
	}
	if s.lock != nil {
		segment.ReleaseLock(s.lock)
	}
}

// reindexLocked rebuilds the index from a fresh handle on the segment:
// writable (cutting a torn tail) or, for a follower, read-only. A follower
// whose writer has not created the segment yet keeps a nil handle. On
// failure the previous handle and index stay in place.
func (s *Store) reindexLocked(writable bool) error {
	index, dead, nextOrd := s.index, s.dead, s.nextOrd
	s.index, s.dead, s.nextOrd = make(map[string]recordLoc), 0, 0
	path := filepath.Join(s.cfg.Dir, segmentName)
	var seg *segment.Log
	var sc segment.Scanned
	var err error
	if writable {
		seg, sc, err = segment.Open(path, s.cfg.NoSync, s.indexFrame)
	} else {
		seg, sc, err = segment.Follow(path, s.indexFrame)
	}
	if err != nil {
		s.index, s.dead, s.nextOrd = index, dead, nextOrd
		if !writable && errors.Is(err, os.ErrNotExist) {
			return nil // the writer has not created the segment yet
		}
		return err
	}
	if s.seg != nil {
		s.seg.Close()
	}
	s.seg = seg
	s.skipped += sc.Skipped
	if sc.Cut > 0 {
		s.truncated += sc.Cut
		s.cfg.Logf("resultstore: %s: dropped %d torn/corrupt trailing bytes", path, sc.Cut)
	}
	return nil
}

// indexFrame is the segment decoder: it folds one {key, value} record
// into the index and rejects any other payload.
func (s *Store) indexFrame(fr segment.Frame) bool {
	var rec segRecord
	if err := json.Unmarshal(fr.Payload, &rec); err != nil || rec.Key == "" || len(rec.Value) == 0 {
		return false
	}
	s.indexLocked(rec.Key, fr)
	return true
}

// indexLocked points key at fr, superseding any older record, which keeps
// its slot in the insertion order.
func (s *Store) indexLocked(key string, fr segment.Frame) {
	loc := recordLoc{off: fr.Off, size: fr.Size(), crc: fr.CRC, order: s.nextOrd}
	if old, ok := s.index[key]; ok {
		s.dead += old.size
		loc.order = old.order
	} else {
		s.nextOrd++
	}
	s.index[key] = loc
}

// sizeLocked is the length of the segment's valid prefix.
func (s *Store) sizeLocked() int64 {
	if s.seg == nil {
		return 0
	}
	return s.seg.End()
}

// Put stores value under key, superseding any previous record. The record
// is durable (fsync'd) when Put returns, unless NoSync is set. Putting an
// identical result twice is harmless — the estimator's determinism makes
// both records bit-identical — but still costs dead bytes until compaction.
func (s *Store) Put(key string, value any) error {
	if key == "" {
		return errors.New("resultstore: empty key")
	}
	raw, err := json.Marshal(value)
	if err != nil {
		return fmt.Errorf("resultstore: encode value: %w", err)
	}
	payload, err := json.Marshal(segRecord{Key: key, Value: raw})
	if err != nil {
		return fmt.Errorf("resultstore: encode record: %w", err)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case s.closed:
		return ErrClosed
	case s.readOnly:
		return ErrReadOnly
	}
	fr, err := s.seg.Append(payload, func() { s.hook("put.pre-sync") })
	if err != nil {
		return fmt.Errorf("resultstore: segment append: %w", err)
	}
	s.indexLocked(key, fr)
	s.metrics.put(int(fr.Size()))

	if s.dead >= s.cfg.CompactMinDead && s.dead > s.seg.End()-s.dead {
		if err := s.compactLocked(); err != nil {
			// A failed compaction loses nothing: the rename is atomic and
			// the segment keeps growing. Log and carry on.
			s.cfg.Logf("resultstore: compaction failed: %v", err)
		}
	}
	return nil
}

// Get unmarshals the stored value for key into value, reporting whether
// the key exists. Each read is CRC-verified against the frame checksum
// recorded at scan time, so on-disk corruption surfaces as an error, never
// as silently wrong bits. A follower that misses refreshes once and
// retries, so results appended by the writer are visible without polling.
func (s *Store) Get(key string, value any) (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false, ErrClosed
	}
	s.maybeRefreshStaleLocked()
	loc, ok := s.index[key]
	if !ok && s.readOnly {
		if err := s.refreshLocked(); err != nil {
			return false, err
		}
		loc, ok = s.index[key]
	}
	if !ok {
		s.metrics.miss()
		return false, nil
	}
	payload := make([]byte, loc.size-segment.HeaderSize)
	if _, err := s.seg.ReadAt(payload, loc.off+segment.HeaderSize); err != nil {
		return false, fmt.Errorf("resultstore: read record: %w", err)
	}
	if segment.Checksum(payload) != loc.crc {
		return false, fmt.Errorf("resultstore: record for %s failed CRC verification", key)
	}
	var rec segRecord
	if err := json.Unmarshal(payload, &rec); err != nil {
		return false, fmt.Errorf("resultstore: decode record: %w", err)
	}
	if err := json.Unmarshal(rec.Value, value); err != nil {
		return false, fmt.Errorf("resultstore: decode value: %w", err)
	}
	s.metrics.hit()
	return true, nil
}

// Has reports whether a result for key is stored, without decoding it.
// Followers refresh on a miss, like Get.
func (s *Store) Has(key string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.maybeRefreshStaleLocked()
	if _, ok := s.index[key]; ok {
		return true
	}
	if s.readOnly {
		if err := s.refreshLocked(); err != nil {
			return false
		}
		_, ok := s.index[key]
		return ok
	}
	return false
}

// maybeRefreshStaleLocked bounds a follower's staleness: when the last
// reconciliation with the on-disk segment is older than MaxStale, refresh
// before serving. Without it a long-idle follower would keep serving the
// pre-compaction view — including superseded records — indefinitely,
// because hits never consulted the disk. Writers are authoritative and
// never refresh. Best-effort: a failed refresh (logged) falls back to the
// stale view rather than failing the read.
func (s *Store) maybeRefreshStaleLocked() {
	if !s.readOnly || s.cfg.MaxStale < 0 {
		return
	}
	if time.Since(s.lastRefresh) <= s.cfg.MaxStale {
		return
	}
	if err := s.refreshLocked(); err != nil {
		s.cfg.Logf("resultstore: staleness refresh failed: %v", err)
	}
}

// Len reports the number of stored results.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.index)
}

// Keys returns the stored keys in insertion order (compaction-stable).
func (s *Store) Keys() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.keysLocked()
}

func (s *Store) keysLocked() []string {
	keys := make([]string, 0, len(s.index))
	for k := range s.index {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(a, b int) bool { return s.index[keys[a]].order < s.index[keys[b]].order })
	return keys
}

// Refresh makes a follower pick up records the writer appended since the
// last scan, surviving writer compactions (a replaced segment is reopened
// and rescanned from the start). On a writer it is a no-op.
func (s *Store) Refresh() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if !s.readOnly {
		return nil
	}
	return s.refreshLocked()
}

// refreshLocked is Refresh with s.mu held.
func (s *Store) refreshLocked() error {
	s.lastRefresh = time.Now()
	if s.seg != nil {
		replaced, err := s.seg.Replaced()
		if err != nil {
			return err
		}
		if !replaced {
			sc, err := s.seg.CatchUp(s.indexFrame)
			s.skipped += sc.Skipped
			return err
		}
	}
	// First sight of the segment, or the writer compacted and the held
	// handle points at the old file: rebuild the index from scratch.
	return s.reindexLocked(false)
}

// Compact rewrites the segment keeping only the newest record per key.
// The writer calls it automatically when dead bytes dominate; it is
// exported for operator tooling and tests.
func (s *Store) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case s.closed:
		return ErrClosed
	case s.readOnly:
		return ErrReadOnly
	}
	return s.compactLocked()
}

// compactLocked rewrites live records, in stable insertion order, into a
// new segment that atomically replaces the old one.
func (s *Store) compactLocked() error {
	newIndex := make(map[string]recordLoc, len(s.index))
	err := s.seg.Rewrite(func(w io.Writer) error {
		var off int64
		for _, k := range s.keysLocked() {
			loc := s.index[k]
			frame := make([]byte, loc.size)
			if _, err := s.seg.ReadAt(frame, loc.off); err != nil {
				return fmt.Errorf("resultstore: compact read: %w", err)
			}
			if segment.Checksum(frame[segment.HeaderSize:]) != loc.crc {
				return fmt.Errorf("resultstore: compact: record for %s failed CRC verification", k)
			}
			if _, err := w.Write(frame); err != nil {
				return fmt.Errorf("resultstore: compact write: %w", err)
			}
			loc.off = off
			newIndex[k] = loc
			off += loc.size
		}
		return nil
	}, func() { s.hook("compact.pre-rename") })
	if err != nil {
		return err
	}
	s.index = newIndex
	s.dead = 0
	s.compactions++
	s.lastCompact = time.Now()
	s.metrics.compacted()
	s.cfg.Logf("resultstore: compacted %s to %d results, %d bytes", s.cfg.Dir, len(newIndex), s.seg.End())
	return nil
}

// Stats reports the store's directory, size and compaction status.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Stats{
		Dir:            s.cfg.Dir,
		ReadOnly:       s.readOnly,
		Entries:        len(s.index),
		SegmentBytes:   s.sizeLocked(),
		DeadBytes:      s.dead,
		Compactions:    s.compactions,
		TruncatedBytes: s.truncated,
		SkippedRecords: s.skipped,
	}
	if !s.lastCompact.IsZero() {
		st.LastCompaction = s.lastCompact.UTC().Format(time.RFC3339Nano)
	}
	return st
}

// ReadOnly reports whether the store is currently a follower. It starts
// as Config.ReadOnly and flips to false on a successful Promote.
func (s *Store) ReadOnly() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.readOnly
}

// Dir reports the store directory.
func (s *Store) Dir() string { return s.cfg.Dir }

// Sync flushes the segment to stable storage. Puts already sync
// individually unless NoSync; Sync exists for drain paths.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || s.readOnly || s.seg == nil {
		return nil
	}
	return s.seg.Sync()
}

// Promote upgrades a follower into the writer: it takes the directory's
// writer flock (failing with a segment.LockHeldError while the old writer's lock
// is still held — the kernel releases it the instant that process dies,
// kill -9 included), reopens the segment read-write, reconciles the index
// with whatever the dead writer managed to append, and cuts any torn tail
// it left, exactly as a fresh writer Open would. On success the store
// accepts Puts. Promoting a store that is already the writer is a no-op.
//
// Promote is the storage half of fleet failover; advancing the fencing
// epoch and re-adopting claimed work are the caller's job (see
// internal/fleet).
func (s *Store) Promote() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if !s.readOnly {
		return nil
	}
	lock, err := segment.AcquireLock(filepath.Join(s.cfg.Dir, lockName), s.cfg.Owner)
	if err != nil {
		return err
	}
	// Rebuild the index from the file we now own: the held follower handle
	// may point at a pre-compaction inode, and the dead writer may have
	// appended past our last scan.
	if err := s.reindexLocked(true); err != nil {
		segment.ReleaseLock(lock)
		return fmt.Errorf("resultstore: promote: open segment: %w", err)
	}
	s.lock = lock
	s.readOnly = false
	s.cfg.Logf("resultstore: promoted to writer on %s (%d results, %d segment bytes)", s.cfg.Dir, len(s.index), s.seg.End())
	return nil
}

// Abandon simulates the process dying without cleanup — kill -9 — for
// chaos tests: every file handle is closed with no sync, no compaction
// and no lock bookkeeping (closing the flock'd handle releases the lock,
// exactly as process death would). The store is unusable afterwards; all
// methods fail with ErrClosed. Production code has no reason to call it.
func (s *Store) Abandon() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	if s.seg != nil {
		s.seg.Close()
	}
	if s.lock != nil {
		s.lock.Close()
	}
}

// Close syncs and closes the store, releasing the writer lock.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	var err error
	if s.seg != nil {
		if !s.readOnly {
			if serr := s.seg.Sync(); serr != nil {
				err = serr
			}
		}
		if cerr := s.seg.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	if s.lock != nil {
		segment.ReleaseLock(s.lock)
	}
	return err
}

// hook fires the configured fault-site hook, if any.
func (s *Store) hook(site string) {
	if s.cfg.Hook != nil {
		s.cfg.Hook(site)
	}
}

// storeMetrics holds the ahs_store_* families; nil (no registry) disables
// recording.
type storeMetrics struct {
	puts        *telemetry.Counter
	hits        *telemetry.Counter
	misses      *telemetry.Counter
	bytes       *telemetry.Counter
	compactions *telemetry.Counter
}

func newStoreMetrics(reg *telemetry.Registry, s *Store) *storeMetrics {
	if reg == nil {
		return nil
	}
	counter := func(name, help string) *telemetry.Counter {
		return reg.Counter(telemetry.Opts{Name: name, Help: help})
	}
	m := &storeMetrics{
		puts:        counter("ahs_store_puts_total", "Results appended to the persistent store."),
		hits:        counter("ahs_store_gets_hit_total", "Store reads that found the key."),
		misses:      counter("ahs_store_gets_miss_total", "Store reads that missed."),
		bytes:       counter("ahs_store_appended_bytes_total", "Framed bytes appended to the store segment."),
		compactions: counter("ahs_store_compactions_total", "Segment compactions of the persistent store."),
	}
	reg.GaugeFunc(telemetry.Opts{
		Name: "ahs_store_entries",
		Help: "Distinct scenario hashes with a stored result.",
	}, func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return float64(len(s.index))
	})
	reg.GaugeFunc(telemetry.Opts{
		Name: "ahs_store_segment_bytes",
		Help: "Current store segment length in bytes.",
	}, func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return float64(s.sizeLocked())
	})
	reg.GaugeFunc(telemetry.Opts{
		Name: "ahs_store_dead_bytes",
		Help: "Segment bytes owned by superseded records (reclaimed by compaction).",
	}, func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return float64(s.dead)
	})
	return m
}

func (m *storeMetrics) put(frameBytes int) {
	if m != nil {
		m.puts.Inc()
		m.bytes.Add(uint64(frameBytes))
	}
}

func (m *storeMetrics) hit() {
	if m != nil {
		m.hits.Inc()
	}
}

func (m *storeMetrics) miss() {
	if m != nil {
		m.misses.Inc()
	}
}

func (m *storeMetrics) compacted() {
	if m != nil {
		m.compactions.Inc()
	}
}
