package resultstore

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"ahs/internal/segment"
)

func openClaims(t *testing.T, dir, owner string, cfg ClaimsConfig) *Claims {
	t.Helper()
	cfg.Dir = dir
	cfg.Owner = owner
	if cfg.Logf == nil {
		cfg.Logf = t.Logf
	}
	c, err := OpenClaims(cfg)
	if err != nil {
		t.Fatalf("OpenClaims(%s, %s): %v", dir, owner, err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

const testTTL = time.Minute

// scanClaims decodes a claims segment's bytes the way reconciliation
// does: the valid prefix length, the claim records and the skipped count.
func scanClaims(data []byte) (valid int64, records []claimRecord, skipped int) {
	valid, skipped = segment.Scan(data, func(fr segment.Frame) bool {
		rec, ok := decodeClaim(fr.Payload)
		if ok {
			records = append(records, rec)
		}
		return ok
	})
	return valid, records, skipped
}

// TestClaimLifecycle covers the basic protocol: acquire, contend, renew,
// release, re-acquire — across two handles on one directory, which is the
// two-process shape minus fork.
func TestClaimLifecycle(t *testing.T) {
	dir := t.TempDir()
	a := openClaims(t, dir, "node-a", ClaimsConfig{URL: "http://a"})
	b := openClaims(t, dir, "node-b", ClaimsConfig{URL: "http://b"})

	sc := json.RawMessage(`{"name":"s1"}`)
	st, stole, err := a.Acquire("hash-1", 1, testTTL, sc)
	if err != nil || stole {
		t.Fatalf("a.Acquire = %+v, stole=%v, err=%v", st, stole, err)
	}
	if st.Owner != "node-a" || st.URL != "http://a" || st.Epoch != 1 {
		t.Fatalf("claim state %+v", st)
	}

	// b must lose and learn who holds it.
	held, stole, err := b.Acquire("hash-1", 1, testTTL, nil)
	if !errors.Is(err, ErrClaimHeld) {
		t.Fatalf("b.Acquire err = %v, want ErrClaimHeld", err)
	}
	if stole || held.Owner != "node-a" || held.URL != "http://a" {
		t.Fatalf("loser saw %+v, stole=%v", held, stole)
	}

	// Renewal by the owner extends and preserves the scenario payload.
	before := st.Expires
	time.Sleep(2 * time.Millisecond)
	lost, err := a.Renew([]string{"hash-1"}, 1, testTTL)
	if err != nil || len(lost) != 0 {
		t.Fatalf("a.Renew lost=%v err=%v", lost, err)
	}
	st2, ok, err := b.Get("hash-1")
	if err != nil || !ok {
		t.Fatalf("b.Get = %v, %v", ok, err)
	}
	if !st2.Expires.After(before) {
		t.Errorf("renew did not extend deadline: %v vs %v", st2.Expires, before)
	}
	if string(st2.Scenario) != string(sc) {
		t.Errorf("renew dropped scenario: %q", st2.Scenario)
	}

	// Renewing a key we don't own reports it lost, appends nothing.
	lost, err = b.Renew([]string{"hash-1", "never-claimed"}, 1, testTTL)
	if err != nil || len(lost) != 2 {
		t.Fatalf("b.Renew lost=%v err=%v, want both lost", lost, err)
	}

	// Release by a non-owner is a no-op; by the owner it frees the key.
	if err := b.Release("hash-1"); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := a.Get("hash-1"); !ok {
		t.Fatal("non-owner release dropped the claim")
	}
	if err := a.Release("hash-1"); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := b.Get("hash-1"); ok {
		t.Fatal("owner release did not drop the claim")
	}

	// Now b can take it.
	if _, stole, err := b.Acquire("hash-1", 2, testTTL, nil); err != nil || stole {
		t.Fatalf("b.Acquire after release: stole=%v err=%v", stole, err)
	}
}

// TestClaimStealAfterExpiry is the crash-recovery path: an owner that
// stops renewing (kill -9) loses its claims to a peer once the TTL
// lapses, and the thief inherits the scenario payload for re-evaluation.
func TestClaimStealAfterExpiry(t *testing.T) {
	dir := t.TempDir()
	a := openClaims(t, dir, "node-a", ClaimsConfig{})
	b := openClaims(t, dir, "node-b", ClaimsConfig{URL: "http://b"})

	sc := json.RawMessage(`{"name":"doomed"}`)
	// The TTL must outlast the gap to the pre-expiry Acquire below even on
	// a loaded machine.
	const ttl = 250 * time.Millisecond
	if _, _, err := a.Acquire("hash-x", 1, ttl, sc); err != nil {
		t.Fatal(err)
	}
	a.Abandon() // kill -9: no release

	// Before expiry the claim still blocks.
	if _, _, err := b.Acquire("hash-x", 2, testTTL, nil); !errors.Is(err, ErrClaimHeld) {
		t.Fatalf("pre-expiry Acquire err = %v, want ErrClaimHeld", err)
	}
	time.Sleep(ttl + 50*time.Millisecond)
	st, stole, err := b.Acquire("hash-x", 2, testTTL, nil)
	if err != nil {
		t.Fatalf("post-expiry Acquire: %v", err)
	}
	if !stole {
		t.Error("post-expiry Acquire did not report a steal")
	}
	if st.Owner != "node-b" || st.Epoch != 2 {
		t.Fatalf("stolen claim state %+v", st)
	}
	if string(st.Scenario) != string(sc) {
		t.Errorf("steal lost the scenario payload: %q", st.Scenario)
	}

	// Renewal by the dead owner's identity (a restarted process reusing
	// the name would have a fresh handle) — simulate with a new handle.
	a2 := openClaims(t, dir, "node-a", ClaimsConfig{})
	lost, err := a2.Renew([]string{"hash-x"}, 1, testTTL)
	if err != nil || len(lost) != 1 {
		t.Fatalf("stale owner Renew lost=%v err=%v, want lost", lost, err)
	}
}

// TestClaimsTornTailTruncated: a peer that crashed mid-append leaves a
// torn frame; the next operation under the flock cuts it and appends
// cleanly after the valid prefix.
func TestClaimsTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	a := openClaims(t, dir, "node-a", ClaimsConfig{})
	if _, _, err := a.Acquire("hash-1", 1, testTTL, nil); err != nil {
		t.Fatal(err)
	}
	a.Close()

	segPath := filepath.Join(dir, claimsSegName)
	f, err := os.OpenFile(segPath, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	// A frame header promising 100 bytes, followed by 3: torn mid-write.
	torn := make([]byte, 11)
	binary.LittleEndian.PutUint32(torn[0:4], 100)
	if _, err := f.Write(torn); err != nil {
		t.Fatal(err)
	}
	f.Close()

	b := openClaims(t, dir, "node-b", ClaimsConfig{})
	st, _, err := b.Acquire("hash-2", 1, testTTL, nil)
	if err != nil {
		t.Fatalf("Acquire over torn tail: %v", err)
	}
	if st.Owner != "node-b" {
		t.Fatalf("claim state %+v", st)
	}
	// The earlier claim survived the cut; the torn bytes did not. The
	// appended claim lands where the torn frame was, so the whole file
	// scans clean again.
	if _, ok, _ := b.Get("hash-1"); !ok {
		t.Error("pre-tear claim lost")
	}
	data, err := os.ReadFile(segPath)
	if err != nil {
		t.Fatal(err)
	}
	valid, recs, skipped := scanClaims(data)
	if valid != int64(len(data)) || skipped != 0 {
		t.Errorf("segment still torn after repair: valid %d of %d bytes, %d skipped", valid, len(data), skipped)
	}
	if len(recs) != 2 {
		t.Errorf("segment holds %d records, want 2", len(recs))
	}

	// A fresh handle agrees with b's view.
	c := openClaims(t, dir, "node-c", ClaimsConfig{})
	snap, err := c.Snapshot()
	if err != nil || len(snap) != 2 {
		t.Fatalf("Snapshot = %d claims, err=%v; want 2", len(snap), err)
	}
}

// TestClaimsUndecodableFrameSkipped: a CRC-valid frame that is not a claim
// record (here, one missing its owner) is skipped and counted without
// cutting the claims after it — the framing past it is still intact.
func TestClaimsUndecodableFrameSkipped(t *testing.T) {
	dir := t.TempDir()
	var data []byte
	for _, payload := range []string{
		`{"key":"hash-1","op":"claim"}`,
		`{"key":"hash-2","owner":"node-a","url":"http://a","epoch":1,"op":"claim","expires":1754600000000000000}`,
	} {
		frame, err := segment.Encode([]byte(payload))
		if err != nil {
			t.Fatal(err)
		}
		data = append(data, frame...)
	}
	valid, recs, skipped := scanClaims(data)
	if valid != int64(len(data)) || skipped != 1 || len(recs) != 1 || recs[0].Key != "hash-2" {
		t.Fatalf("scan = (%d of %d bytes, %d records, %d skipped), want the whole file, hash-2 only, 1 skipped",
			valid, len(data), len(recs), skipped)
	}
	if err := os.WriteFile(filepath.Join(dir, claimsSegName), data, 0o644); err != nil {
		t.Fatal(err)
	}

	c := openClaims(t, dir, "node-b", ClaimsConfig{})
	snap, err := c.Snapshot()
	if err != nil || len(snap) != 1 {
		t.Fatalf("Snapshot = %+v, err=%v; want just hash-2", snap, err)
	}
	if st, ok, _ := c.Get("hash-2"); !ok || st.Owner != "node-a" || st.URL != "http://a" {
		t.Fatalf("claim after the skipped frame = %+v, %v", st, ok)
	}
	// Appends continue after the skipped frame, which stays on disk.
	if _, _, err := c.Acquire("hash-3", 1, testTTL, nil); err != nil {
		t.Fatal(err)
	}
	after, err := os.ReadFile(filepath.Join(dir, claimsSegName))
	if err != nil {
		t.Fatal(err)
	}
	if _, recs, skipped := scanClaims(after); len(recs) != 2 || skipped != 1 {
		t.Errorf("segment holds %d records and %d skipped frames, want 2 and 1", len(recs), skipped)
	}
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

// TestClaimsCompaction: churning claims past the dead-record threshold
// compacts the segment; peers follow the rename and agree on live state.
func TestClaimsCompaction(t *testing.T) {
	dir := t.TempDir()
	a := openClaims(t, dir, "node-a", ClaimsConfig{CompactMinRecords: 8})
	b := openClaims(t, dir, "node-b", ClaimsConfig{CompactMinRecords: 1 << 20})

	// b observes early state so its handle predates the compaction.
	if _, _, err := b.Acquire("keeper-b", 1, testTTL, nil); err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 20; i++ {
		key := fmt.Sprintf("churn-%d", i)
		if _, _, err := a.Acquire(key, 1, testTTL, nil); err != nil {
			t.Fatal(err)
		}
		if err := a.Release(key); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := a.Acquire("keeper-a", 1, testTTL, json.RawMessage(`{"name":"k"}`)); err != nil {
		t.Fatal(err)
	}

	// Compaction happened: the segment holds only live claims.
	size := fileSize(t, filepath.Join(dir, claimsSegName))
	if size > 2048 {
		t.Errorf("segment %d bytes after churn; compaction did not run", size)
	}
	// b's stale handle reconciles through the rename.
	snap, err := b.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if len(snap) != 2 {
		t.Fatalf("peer sees %d claims after compaction, want 2", len(snap))
	}
	st, ok, err := b.Get("keeper-a")
	if err != nil || !ok || string(st.Scenario) != `{"name":"k"}` {
		t.Fatalf("keeper-a after compaction: %+v ok=%v err=%v", st, ok, err)
	}
}

// TestEpochMonotonic: AdvanceEpoch persists a strictly increasing counter
// that survives process (handle) turnover.
func TestEpochMonotonic(t *testing.T) {
	dir := t.TempDir()
	if e, err := CurrentEpoch(dir); err != nil || e != 0 {
		t.Fatalf("virgin CurrentEpoch = %d, %v", e, err)
	}
	var last uint64
	for i := 0; i < 5; i++ {
		e, err := AdvanceEpoch(dir, "node-a")
		if err != nil {
			t.Fatal(err)
		}
		if e != last+1 {
			t.Fatalf("AdvanceEpoch = %d after %d", e, last)
		}
		last = e
		if cur, _ := CurrentEpoch(dir); cur != e {
			t.Fatalf("CurrentEpoch = %d after advancing to %d", cur, e)
		}
	}
}

// TestWriterInfoRoundTrip covers the heartbeat document.
func TestWriterInfoRoundTrip(t *testing.T) {
	dir := t.TempDir()
	if _, ok, err := ReadWriterInfo(dir); ok || err != nil {
		t.Fatalf("virgin ReadWriterInfo ok=%v err=%v", ok, err)
	}
	info := WriterInfo{Owner: "node-a", URL: "http://a", Epoch: 3, Expires: time.Now().Add(time.Second).UnixNano()}
	if err := WriteWriterInfo(dir, info); err != nil {
		t.Fatal(err)
	}
	got, ok, err := ReadWriterInfo(dir)
	if err != nil || !ok || got != info {
		t.Fatalf("ReadWriterInfo = %+v, %v, %v", got, ok, err)
	}
	if got.Expired(time.Now()) {
		t.Error("fresh heartbeat reads expired")
	}
	if !got.Expired(time.Now().Add(2 * time.Second)) {
		t.Error("lapsed heartbeat reads live")
	}
}

// TestFollowerStalenessBound is the satellite regression. A follower
// already refreshed on a *miss*; the gap was the hit path — an index hit
// never consulted the disk, so a long-idle follower kept serving a
// superseded value from the pre-compaction segment indefinitely. With
// MaxStale, a hit after the bound reconciles first and serves the
// writer's current value.
func TestFollowerStalenessBound(t *testing.T) {
	dir := t.TempDir()
	w := openTest(t, dir, Config{})
	v1, v2 := testDoc(1), testDoc(2)
	if err := w.Put("hash-1", v1); err != nil {
		t.Fatal(err)
	}

	bounded := openTest(t, dir, Config{ReadOnly: true, MaxStale: 20 * time.Millisecond})
	frozen := openTest(t, dir, Config{ReadOnly: true, MaxStale: -1})
	var got curveDoc
	for _, f := range []*Store{bounded, frozen} {
		if ok, err := f.Get("hash-1", &got); err != nil || !ok || docBits(got) != docBits(v1) {
			t.Fatalf("follower warm-up Get = %v, %v, bits match %v", ok, err, docBits(got) == docBits(v1))
		}
	}

	// The writer supersedes the value and compacts, replacing the
	// segment inode. Both followers still hold the old inode and an
	// index entry for hash-1 — a hit, so the miss-path refresh never
	// fires.
	if err := w.Put("hash-1", v2); err != nil {
		t.Fatal(err)
	}
	if err := w.Compact(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(30 * time.Millisecond)

	// The bounded follower self-heals within MaxStale…
	if ok, err := bounded.Get("hash-1", &got); err != nil || !ok {
		t.Fatalf("bounded Get = %v, %v", ok, err)
	}
	if docBits(got) != docBits(v2) {
		t.Errorf("bounded follower still serves the superseded value after MaxStale")
	}
	// …while the unbounded one is the regression this test pins: it
	// serves the superseded value until an explicit Refresh.
	if ok, err := frozen.Get("hash-1", &got); err != nil || !ok {
		t.Fatalf("frozen Get = %v, %v", ok, err)
	}
	if docBits(got) != docBits(v1) {
		t.Fatalf("MaxStale<0 follower refreshed on a hit; bound is not the mechanism under test")
	}
	if err := frozen.Refresh(); err != nil {
		t.Fatal(err)
	}
	if ok, err := frozen.Get("hash-1", &got); err != nil || !ok || docBits(got) != docBits(v2) {
		t.Fatalf("explicit Refresh did not heal the frozen follower: %v %v", ok, err)
	}
}

// TestLockContention is the satellite coverage: two writers racing Open
// on one directory — exactly one wins; the loser's error is typed, still
// matches ErrLocked, and names the holder's PID and owner. flock
// conflicts between two descriptors even in one process, which is what
// lets this run without fork.
func TestLockContention(t *testing.T) {
	dir := t.TempDir()
	winner, err := Open(Config{Dir: dir, Owner: "alpha", Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer winner.Close()

	_, err = Open(Config{Dir: dir, Owner: "beta", Logf: t.Logf})
	if err == nil {
		t.Fatal("second writer Open succeeded; lock not exclusive")
	}
	if !errors.Is(err, segment.ErrLocked) {
		t.Fatalf("loser error %v does not match ErrLocked", err)
	}
	var held *segment.LockHeldError
	if !errors.As(err, &held) {
		t.Fatalf("loser error %T is not *segment.LockHeldError", err)
	}
	if held.HolderPID != os.Getpid() {
		t.Errorf("HolderPID = %d, want %d", held.HolderPID, os.Getpid())
	}
	if held.HolderOwner != "alpha" {
		t.Errorf("HolderOwner = %q, want alpha", held.HolderOwner)
	}
	for _, want := range []string{fmt.Sprint(os.Getpid()), "alpha"} {
		if !containsStr(err.Error(), want) {
			t.Errorf("error %q does not name %q", err, want)
		}
	}

	// Releasing the winner frees the directory.
	if err := winner.Close(); err != nil {
		t.Fatal(err)
	}
	s, err := Open(Config{Dir: dir, Owner: "beta", Logf: t.Logf})
	if err != nil {
		t.Fatalf("Open after release: %v", err)
	}
	s.Close()
}

func containsStr(haystack, needle string) bool {
	return len(needle) > 0 && len(haystack) >= len(needle) && (func() bool {
		for i := 0; i+len(needle) <= len(haystack); i++ {
			if haystack[i:i+len(needle)] == needle {
				return true
			}
		}
		return false
	})()
}

// TestPromoteAdoptsDirtyDir: Promote on a follower wins the freed lock,
// truncates a torn tail the dead writer left, and serves writes.
func TestPromoteAdoptsDirtyDir(t *testing.T) {
	dir := t.TempDir()
	w := openTest(t, dir, Config{})
	if err := w.Put("hash-1", testDoc(1)); err != nil {
		t.Fatal(err)
	}
	follower := openTest(t, dir, Config{ReadOnly: true})

	w.Abandon() // kill -9: flock drops with the close

	// Leave a torn frame, as a writer dying mid-append would.
	f, err := os.OpenFile(filepath.Join(dir, segmentName), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	torn := make([]byte, 10)
	binary.LittleEndian.PutUint32(torn[0:4], 500)
	binary.LittleEndian.PutUint32(torn[4:8], segment.Checksum([]byte("x")))
	if _, err := f.Write(torn); err != nil {
		t.Fatal(err)
	}
	f.Close()

	if err := follower.Promote(); err != nil {
		t.Fatalf("Promote: %v", err)
	}
	if follower.ReadOnly() {
		t.Fatal("promoted store still read-only")
	}
	var v curveDoc
	if ok, err := follower.Get("hash-1", &v); err != nil || !ok {
		t.Fatalf("promoted Get(hash-1) = %v, %v", ok, err)
	}
	if err := follower.Put("hash-2", testDoc(2)); err != nil {
		t.Fatalf("promoted Put: %v", err)
	}
	// Promote on a writer is a no-op.
	if err := follower.Promote(); err != nil {
		t.Fatalf("second Promote: %v", err)
	}

	// A fresh reader agrees — the torn tail is gone, both docs intact.
	r := openTest(t, dir, Config{ReadOnly: true})
	for _, key := range []string{"hash-1", "hash-2"} {
		if ok, err := r.Get(key, &v); err != nil || !ok {
			t.Fatalf("reader Get(%s) = %v, %v", key, ok, err)
		}
	}
}
