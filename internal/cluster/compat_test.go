package cluster

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// TestJournalShortWriteKeepsLaterRecords: a failed append that leaves part
// of its frame on disk (a short write on a full disk) must not strand the
// records acknowledged after it. The coordinator logs failed appends and
// keeps going, so the next append has to overwrite the leftover bytes
// rather than follow them.
func TestJournalShortWriteKeepsLaterRecords(t *testing.T) {
	dir := t.TempDir()
	sc := testScenario(1000).Canonical()
	hash, _ := sc.Hash()
	submit := func(id uint64) journalRecord {
		return journalRecord{Type: recSubmit, Job: id, Scenario: sc, Hash: hash, RoundSize: 500, ChunkBatches: 500}
	}
	j, err := OpenJournal(JournalConfig{Dir: dir, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.append(submit(1)); err != nil {
		t.Fatal(err)
	}
	// Job 2's append fails halfway through its frame.
	frame, err := frameRecord(submit(2))
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(filepath.Join(dir, journalTailName), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(frame[:len(frame)/2]); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if err := j.append(submit(3)); err != nil {
		t.Fatalf("append after the failed write: %v", err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, err := OpenJournal(JournalConfig{Dir: dir, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	var ids []uint64
	for _, job := range j2.recoveredJobs() {
		ids = append(ids, job.id)
	}
	if fmt.Sprint(ids) != "[1 3]" {
		t.Fatalf("recovered jobs %v, want [1 3]: the acknowledged append of job 3 was lost", ids)
	}
}

// TestJournalOpensCommittedFixture pins the on-disk format. testdata/compat
// holds a journal directory written by the implementation that predates
// internal/segment: a compacted snapshot, then a tail of further records
// ending in half a frame. It must replay to the same jobs, with the torn
// bytes cut and the snapshot untouched.
func TestJournalOpensCommittedFixture(t *testing.T) {
	const (
		snapshotBytes = 1699
		tailBytes     = 1472
		tornBytes     = 65
	)
	dir := t.TempDir()
	for _, name := range []string{journalSnapshotName, journalTailName} {
		data, err := os.ReadFile(filepath.Join("testdata", "compat", name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	j, err := OpenJournal(JournalConfig{Dir: dir, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()

	type want struct {
		chunks       string // chunk starts in order
		finished     bool
		finishErr    string
		localWorkers int
		trace        string
	}
	wants := map[uint64]want{
		1: {chunks: "[0 250 500 750]", finished: true, localWorkers: 1},
		2: {chunks: "[0 500]", localWorkers: 2, trace: "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"},
		4: {chunks: "[]", finished: true, finishErr: "fixture: permanent failure"},
	}
	jobs := j.recoveredJobs()
	if len(jobs) != len(wants) {
		t.Fatalf("recovered %d jobs, want %d (job 3 was dropped)", len(jobs), len(wants))
	}
	for _, job := range jobs {
		w, ok := wants[job.id]
		if !ok {
			t.Fatalf("recovered unexpected job %d", job.id)
		}
		var starts []uint64
		for _, start := range []uint64{0, 250, 500, 750} {
			st, ok := job.chunks[start]
			if !ok {
				continue
			}
			starts = append(starts, start)
			if st.Spec.Count != 250 || st.RoundSize != 250 || st.Causes["fixture"] != start+job.id {
				t.Errorf("job %d chunk %d = %+v", job.id, start, st)
			}
		}
		if starts == nil {
			starts = []uint64{}
		}
		sub := job.submit
		hash, err := sub.Scenario.Hash()
		if err != nil || hash != sub.Hash {
			t.Errorf("job %d: scenario hashes to %s (%v), record says %s", job.id, hash, err, sub.Hash)
		}
		got := want{fmt.Sprint(starts), job.finished, job.finishErr, sub.LocalWorkers, sub.Trace}
		if got != w || sub.RoundSize != 250 || sub.ChunkBatches != 250 || len(job.chunks) != len(starts) {
			t.Errorf("job %d = %+v (submit %+v), want %+v", job.id, got, sub, w)
		}
	}
	if got := j.maxJobID(); got != 4 {
		t.Errorf("maxJobID = %d, want 4", got)
	}
	for name, size := range map[string]int64{journalSnapshotName: snapshotBytes, journalTailName: tailBytes - tornBytes} {
		fi, err := os.Stat(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() != size {
			t.Errorf("%s holds %d bytes after open, want %d", name, fi.Size(), size)
		}
	}
}
