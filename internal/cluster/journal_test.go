package cluster

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"ahs/internal/config"
	"ahs/internal/core"
	"ahs/internal/mc"
	"ahs/internal/segment"
)

// frameRecord encodes one record as the journal frames it on disk.
func frameRecord(rec journalRecord) ([]byte, error) {
	payload, err := encodeRecord(rec)
	if err != nil {
		return nil, err
	}
	return segment.Encode(payload)
}

// scanJournal decodes a journal file's bytes the way replay does: the
// valid prefix length, the well-formed records and the skipped count.
func scanJournal(data []byte) (valid int64, records []journalRecord, dropped int) {
	valid, dropped = segment.Scan(data, func(fr segment.Frame) bool {
		rec, ok := decodeRecord(fr.Payload)
		if ok {
			records = append(records, rec)
		}
		return ok
	})
	return valid, records, dropped
}

// journalFrames builds the framed journal bytes for a real, completed run
// of sc: submit, one chunk record per shard (simulated for real, so the
// states carry genuine statistics), and a finish record. It returns the
// concatenated frames together with each frame's end offset, so tests can
// cut the journal at every record boundary.
func journalFrames(t *testing.T, sc *config.Scenario, chunkBatches uint64) (data []byte, ends []int) {
	t.Helper()
	sc = sc.Canonical()
	hash, err := sc.Hash()
	if err != nil {
		t.Fatal(err)
	}
	p, err := sc.Params()
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.Build(p)
	if err != nil {
		t.Fatal(err)
	}
	opts := sc.EvalOptions(sys)
	opts.Workers = 1
	opts.CheckEvery = 500
	job, err := sys.UnsafetyJob(opts)
	if err != nil {
		t.Fatal(err)
	}

	records := []journalRecord{{
		Type:         recSubmit,
		Job:          1,
		Scenario:     sc,
		Hash:         hash,
		RoundSize:    job.RoundSize(),
		ChunkBatches: chunkBatches,
		LocalWorkers: 1,
	}}
	for _, spec := range job.Shard(chunkBatches) {
		state, err := mc.EstimateChunk(job, spec)
		if err != nil {
			t.Fatal(err)
		}
		records = append(records, journalRecord{Type: recChunk, Job: 1, State: state})
	}
	records = append(records, journalRecord{Type: recFinish, Job: 1})

	var buf bytes.Buffer
	for _, rec := range records {
		frame, err := frameRecord(rec)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(frame)
		ends = append(ends, buf.Len())
	}
	return buf.Bytes(), ends
}

// TestJournalRoundTrip: records appended to a journal are recovered intact
// by a fresh open of the same directory.
func TestJournalRoundTrip(t *testing.T) {
	dir := t.TempDir()
	sc := testScenario(1000).Canonical()
	hash, _ := sc.Hash()

	j, err := OpenJournal(JournalConfig{Dir: dir, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	sub := journalRecord{Type: recSubmit, Job: 7, Scenario: sc, Hash: hash, RoundSize: 500, ChunkBatches: 500, LocalWorkers: 2}
	if err := j.append(sub); err != nil {
		t.Fatal(err)
	}
	state := &mc.ChunkState{Spec: mc.ChunkSpec{Start: 0, Count: 500}}
	if err := j.append(journalRecord{Type: recChunk, Job: 7, State: state}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, err := OpenJournal(JournalConfig{Dir: dir, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	jobs := j2.recoveredJobs()
	if len(jobs) != 1 {
		t.Fatalf("recovered %d jobs, want 1", len(jobs))
	}
	rj := jobs[0]
	if rj.id != 7 || rj.submit.Hash != hash || rj.submit.RoundSize != 500 || rj.submit.LocalWorkers != 2 {
		t.Errorf("recovered submit = %+v, want the appended one", rj.submit)
	}
	if len(rj.chunks) != 1 || rj.chunks[0] == nil || rj.chunks[0].Spec.Count != 500 {
		t.Errorf("recovered chunks = %v, want the appended chunk at start 0", rj.chunks)
	}
	if rj.finished {
		t.Error("job recovered as finished without a finish record")
	}
	if got := j2.maxJobID(); got != 7 {
		t.Errorf("maxJobID = %d, want 7", got)
	}
}

// TestJournalDropForgets: a drop record erases the job from recovery.
func TestJournalDropForgets(t *testing.T) {
	dir := t.TempDir()
	sc := testScenario(1000).Canonical()
	hash, _ := sc.Hash()
	j, err := OpenJournal(JournalConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	j.append(journalRecord{Type: recSubmit, Job: 1, Scenario: sc, Hash: hash, RoundSize: 500, ChunkBatches: 500})
	j.append(journalRecord{Type: recDrop, Job: 1})
	j.Close()

	j2, err := OpenJournal(JournalConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if n := len(j2.recoveredJobs()); n != 0 {
		t.Fatalf("recovered %d jobs after drop, want 0", n)
	}
}

// TestRestoreDropsStoreServedJobs: a journal-restored job whose scenario
// the persistent result store already holds is dropped at startup — and
// the drop is journaled, so it stays dead across further restarts — while
// jobs the store lacks are restored as usual.
func TestRestoreDropsStoreServedJobs(t *testing.T) {
	dir := t.TempDir()
	sc := testScenario(1000).Canonical()
	hash, _ := sc.Hash()
	j, err := OpenJournal(JournalConfig{Dir: dir, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.append(journalRecord{Type: recSubmit, Job: 1, Scenario: sc, Hash: hash, RoundSize: 500, ChunkBatches: 500, LocalWorkers: 1}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// Without the hook the job is restored.
	j2, err := OpenJournal(JournalConfig{Dir: dir, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	coord := New(Config{Journal: j2, Logf: t.Logf})
	if st := coord.Status(); st.RecoveredJobs != 1 {
		t.Fatalf("RecoveredJobs = %d without HasResult, want 1", st.RecoveredJobs)
	}
	coord.Close()
	j2.Close()

	// With the store claiming the hash, restore drops the job.
	j3, err := OpenJournal(JournalConfig{Dir: dir, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	var asked []string
	coord3 := New(Config{Journal: j3, Logf: t.Logf, HasResult: func(h string) bool {
		asked = append(asked, h)
		return true
	}})
	if st := coord3.Status(); st.RecoveredJobs != 0 {
		t.Fatalf("RecoveredJobs = %d with the store claiming the hash, want 0", st.RecoveredJobs)
	}
	if len(asked) != 1 || asked[0] != hash {
		t.Fatalf("HasResult asked about %v, want exactly [%s]", asked, hash)
	}
	coord3.Close()
	j3.Close()

	// The drop was journaled: a later restart recovers nothing even
	// without the hook.
	j4, err := OpenJournal(JournalConfig{Dir: dir, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer j4.Close()
	coord4 := New(Config{Journal: j4, Logf: t.Logf})
	defer coord4.Close()
	if st := coord4.Status(); st.RecoveredJobs != 0 {
		t.Fatalf("RecoveredJobs = %d after journaled drop, want 0", st.RecoveredJobs)
	}
}

// TestAdoptUnbuildableJournaledJob: a journaled job whose scenario no
// longer builds is restored finished with the rebuild error; submitting
// that scenario again adopts the job and returns the error instead of
// reading the merger the failed rebuild never made.
func TestAdoptUnbuildableJournaledJob(t *testing.T) {
	dir := t.TempDir()
	sc := testScenario(1000)
	sc.Strategy = "XX"
	sc = sc.Canonical()
	hash, err := sc.Hash()
	if err != nil {
		t.Fatal(err)
	}
	j, err := OpenJournal(JournalConfig{Dir: dir, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.append(journalRecord{Type: recSubmit, Job: 1, Scenario: sc, Hash: hash, RoundSize: 500, ChunkBatches: 500, LocalWorkers: 1}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, err := OpenJournal(JournalConfig{Dir: dir, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	coord := New(Config{Journal: j2, Logf: t.Logf})
	defer coord.Close()
	if st := coord.Status(); st.RecoveredJobs != 1 {
		t.Fatalf("RecoveredJobs = %d, want the unbuildable job restored", st.RecoveredJobs)
	}
	curve, _, err := coord.UnsafetyCurve(context.Background(), sc, 1, nil)
	if err == nil || !strings.Contains(err.Error(), "rebuild journaled job 1") {
		t.Fatalf("adopting the unbuildable job: curve %v, err %v; want the rebuild error", curve, err)
	}
	if st := coord.Status(); st.RecoveredJobs != 0 || st.ActiveJobs != 0 {
		t.Fatalf("after adoption: %+v, want the job gone", st)
	}
}

// TestJournalTornTailTruncated: a partial frame at the tail (the classic
// torn write) is detected and cut; the valid prefix survives untouched.
func TestJournalTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	data, ends := journalFrames(t, testScenario(1000), 500)
	tailPath := filepath.Join(dir, journalTailName)

	// Write all frames plus 5 bytes of a would-be next frame.
	torn := append(append([]byte{}, data...), 0xAA, 0xBB, 0xCC, 0xDD, 0xEE)
	if err := os.WriteFile(tailPath, torn, 0o644); err != nil {
		t.Fatal(err)
	}
	j, err := OpenJournal(JournalConfig{Dir: dir, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(j.recoveredJobs()); n != 1 {
		t.Fatalf("recovered %d jobs from torn journal, want 1", n)
	}
	j.Close()
	// The file must have been truncated back to the last valid frame.
	fi, err := os.Stat(tailPath)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != int64(ends[len(ends)-1]) {
		t.Errorf("torn tail size = %d after open, want %d", fi.Size(), ends[len(ends)-1])
	}
}

// TestJournalCorruptFrameCutsReplay: a bit flip inside a frame's payload
// fails its CRC; replay stops at the previous record (frame boundaries
// after the corruption cannot be trusted).
func TestJournalCorruptFrameCutsReplay(t *testing.T) {
	dir := t.TempDir()
	data, ends := journalFrames(t, testScenario(1000), 500)
	// Flip one byte in the middle of the second frame's payload.
	corrupt := append([]byte{}, data...)
	corrupt[ends[0]+12] ^= 0x01
	if err := os.WriteFile(filepath.Join(dir, journalTailName), corrupt, 0o644); err != nil {
		t.Fatal(err)
	}
	j, err := OpenJournal(JournalConfig{Dir: dir, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	jobs := j.recoveredJobs()
	if len(jobs) != 1 {
		t.Fatalf("recovered %d jobs, want 1 (submit is in the valid prefix)", len(jobs))
	}
	if len(jobs[0].chunks) != 0 {
		t.Errorf("recovered %d chunks past a corrupt frame, want 0", len(jobs[0].chunks))
	}
}

// TestJournalMalformedRecordSkipped: a CRC-valid frame whose payload is
// semantically broken (bad JSON or missing required fields) is skipped
// without cutting the records after it — the framing is still intact.
func TestJournalMalformedRecordSkipped(t *testing.T) {
	frame := func(payload []byte) []byte {
		f, err := segment.Encode(payload)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	good, err := frameRecord(journalRecord{Type: recFinish, Job: 3})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.Write(frame([]byte(`{not json`)))                 // malformed JSON
	buf.Write(frame([]byte(`{"type":"submit","job":0}`))) // well-framed, ill-formed record
	buf.Write(good)

	valid, records, dropped := scanJournal(buf.Bytes())
	if valid != int64(buf.Len()) {
		t.Errorf("valid prefix = %d, want %d (malformed frames are still framed)", valid, buf.Len())
	}
	if dropped != 2 {
		t.Errorf("dropped = %d, want 2", dropped)
	}
	if len(records) != 1 || records[0].Type != recFinish || records[0].Job != 3 {
		t.Errorf("records = %+v, want just the finish record", records)
	}
}

// TestScanJournalEdges: empty and sub-header inputs scan to nothing.
func TestScanJournalEdges(t *testing.T) {
	for _, data := range [][]byte{nil, {}, {1, 2, 3}, make([]byte, 7)} {
		valid, records, dropped := scanJournal(data)
		if valid != 0 || len(records) != 0 || dropped != 0 {
			t.Errorf("scanJournal(%v) = (%d, %d records, %d dropped), want zeros", data, valid, len(records), dropped)
		}
	}
	// A frame whose declared length overruns the buffer is torn.
	huge := make([]byte, 16)
	binary.LittleEndian.PutUint32(huge[0:4], 1<<30)
	if valid, records, _ := scanJournal(huge); valid != 0 || len(records) != 0 {
		t.Errorf("overlong frame scanned to (%d, %d records), want zeros", valid, len(records))
	}
}

// TestJournalCompaction: once the tail passes CompactEvery records the
// journal folds it into the snapshot; recovery from the compacted layout is
// equivalent to recovery from the raw tail.
func TestJournalCompaction(t *testing.T) {
	dir := t.TempDir()
	sc := testScenario(1000).Canonical()
	hash, _ := sc.Hash()
	j, err := OpenJournal(JournalConfig{Dir: dir, CompactEvery: 4, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	j.append(journalRecord{Type: recSubmit, Job: 1, Scenario: sc, Hash: hash, RoundSize: 500, ChunkBatches: 250})
	for i := uint64(0); i < 4; i++ {
		j.append(journalRecord{Type: recChunk, Job: 1, State: &mc.ChunkState{Spec: mc.ChunkSpec{Start: i * 250, Count: 250}}})
	}
	j.Close()

	snap, err := os.Stat(filepath.Join(dir, journalSnapshotName))
	if err != nil {
		t.Fatalf("no snapshot after compaction: %v", err)
	}
	if snap.Size() == 0 {
		t.Error("snapshot is empty")
	}
	tail, err := os.Stat(filepath.Join(dir, journalTailName))
	if err != nil {
		t.Fatal(err)
	}
	// Only the records appended after the compaction point remain in the
	// tail (the 5th append triggered compaction at >= 4).
	if tail.Size() >= snap.Size() {
		t.Errorf("tail (%d bytes) not reset against snapshot (%d bytes)", tail.Size(), snap.Size())
	}

	j2, err := OpenJournal(JournalConfig{Dir: dir, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	jobs := j2.recoveredJobs()
	if len(jobs) != 1 || len(jobs[0].chunks) != 4 {
		t.Fatalf("recovered %d jobs (chunks %v), want 1 job with 4 chunks", len(jobs), jobs)
	}
}

// TestJournalRestartBitIdentical is the in-process crash/restart check: a
// journaled coordinator is closed mid-job (jobs unfinished, journal kept),
// a second coordinator opens the same journal, the caller re-submits the
// same scenario, and the adopted job finishes with the exact bits of an
// uninterrupted single-process run.
func TestJournalRestartBitIdentical(t *testing.T) {
	sc := testScenario(4000)
	want := singleProcessCurve(t, sc, 500)
	dir := t.TempDir()

	// Phase 1: run with one worker (so chunks are journaled one at a
	// time), then abandon mid-job by closing the coordinator once at
	// least one chunk is durable — 7 of the 8 chunks remain.
	j1, err := OpenJournal(JournalConfig{Dir: dir, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	coord1, srv1 := testCluster(t, Config{ChunkBatches: 500, CheckEvery: 500, Journal: j1})
	stop := startWorkers(t, srv1.URL, 1)
	errc := make(chan error, 1)
	go func() {
		_, _, err := coord1.UnsafetyCurve(context.Background(), sc, 1, nil)
		errc <- err
	}()
	deadline := time.After(30 * time.Second)
	for {
		if rec := j1.recoveredJobs(); len(rec) == 1 && len(rec[0].chunks) >= 1 {
			break
		}
		select {
		case err := <-errc:
			t.Fatalf("job finished before the crash point: %v", err)
		case <-deadline:
			t.Fatal("no chunk journaled within 30s")
		case <-time.After(time.Millisecond):
		}
	}
	stop()
	coord1.Close()
	if err := <-errc; err == nil {
		t.Fatal("phase-1 caller succeeded despite coordinator close")
	}
	if err := j1.Close(); err != nil {
		t.Fatal(err)
	}

	// Phase 2: restart on the same journal; the re-submitted scenario
	// adopts the restored job and local rescue finishes the remainder.
	j2, err := OpenJournal(JournalConfig{Dir: dir, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { j2.Close() })
	coord2, _ := testCluster(t, Config{ChunkBatches: 500, CheckEvery: 500, Journal: j2})
	if st := coord2.Status(); st.RecoveredJobs != 1 {
		t.Fatalf("RecoveredJobs = %d after restart, want 1", st.RecoveredJobs)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	got, _, err := coord2.UnsafetyCurve(ctx, sc, 1, nil)
	if err != nil {
		t.Fatalf("adopted job failed: %v", err)
	}
	assertBitIdentical(t, got, want)
}

// TestJournalTruncationTable cuts a complete journal after every record —
// and mid-record, the torn-write case — and proves each prefix restores and
// finishes to the bit-identical curve. This is the exhaustive version of
// the crash-window argument: wherever the crash lands, recovery converges
// to the same answer.
func TestJournalTruncationTable(t *testing.T) {
	if testing.Short() {
		t.Skip("runs one restore per journal record")
	}
	sc := testScenario(2000)
	want := singleProcessCurve(t, sc, 500)
	data, ends := journalFrames(t, sc, 500)

	cuts := []int{0}
	for _, end := range ends {
		if end+3 < len(data) {
			cuts = append(cuts, end+3) // torn: 3 bytes into the next frame
		}
		cuts = append(cuts, end)
	}
	for _, cut := range cuts {
		cut := cut
		t.Run(formatCut(cut, len(data)), func(t *testing.T) {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, journalTailName), data[:cut], 0o644); err != nil {
				t.Fatal(err)
			}
			j, err := OpenJournal(JournalConfig{Dir: dir, Logf: t.Logf})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { j.Close() })
			coord, _ := testCluster(t, Config{ChunkBatches: 500, CheckEvery: 500, Journal: j})
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			got, _, err := coord.UnsafetyCurve(ctx, sc, 1, nil)
			if err != nil {
				t.Fatalf("cut at %d bytes: restore did not finish: %v", cut, err)
			}
			assertBitIdentical(t, got, want)
		})
	}
}

func formatCut(cut, total int) string {
	return "cut=" + itoa(cut) + "of" + itoa(total)
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

// TestJournalWriterLock: one open journal per directory. A second open
// fails with an error naming the holder's owner and PID, and succeeds once
// the first journal closes. flock conflicts between two descriptors even
// in one process, so this runs without fork.
func TestJournalWriterLock(t *testing.T) {
	dir := t.TempDir()
	first, err := OpenJournal(JournalConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	_, err = OpenJournal(JournalConfig{Dir: dir})
	if !errors.Is(err, segment.ErrLocked) {
		first.Close()
		t.Fatalf("second open = %v, want segment.ErrLocked", err)
	}
	var held *segment.LockHeldError
	if !errors.As(err, &held) {
		t.Fatalf("second open error %T is not *segment.LockHeldError", err)
	}
	host, _ := os.Hostname()
	owner := filepath.Base(os.Args[0]) + "@" + host
	if held.HolderPID != os.Getpid() || held.HolderOwner != owner {
		t.Errorf("holder = pid %d owner %q, want pid %d owner %q", held.HolderPID, held.HolderOwner, os.Getpid(), owner)
	}
	for _, want := range []string{strconv.Itoa(os.Getpid()), owner} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %q", err, want)
		}
	}
	if err := first.Close(); err != nil {
		t.Fatal(err)
	}
	second, err := OpenJournal(JournalConfig{Dir: dir})
	if err != nil {
		t.Fatalf("open after the holder closed: %v", err)
	}
	second.Close()
}
