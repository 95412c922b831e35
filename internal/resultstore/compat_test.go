package resultstore

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// TestOpensCommittedFixture pins the on-disk format. testdata/compat holds
// a store directory written by the implementation that predates
// internal/segment: results (one superseded) and a claims region, each
// segment ending in part of a frame, plus the epoch and writer heartbeat.
// Followers must read it untouched; the writer and the claims region must
// open it to the same keys and claims, with the torn bytes cut.
func TestOpensCommittedFixture(t *testing.T) {
	const (
		resultsBytes, resultsTorn = 2176, 21
		claimsBytes, claimsTorn   = 628, 13
	)
	dir := t.TempDir()
	for _, name := range []string{segmentName, claimsSegName, epochName, writerInfoName} {
		data, err := os.ReadFile(filepath.Join("testdata", "compat", name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	size := func(name string) int64 {
		t.Helper()
		fi, err := os.Stat(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		return fi.Size()
	}
	wantDocs := map[string]curveDoc{"hash-1": testDoc(11), "hash-2": testDoc(2), "hash-3": testDoc(3)}
	checkStore := func(label string, s *Store) {
		t.Helper()
		if got := fmt.Sprint(s.Keys()); got != "[hash-1 hash-2 hash-3]" {
			t.Errorf("%s: Keys() = %s, want [hash-1 hash-2 hash-3]", label, got)
		}
		for key, want := range wantDocs {
			var got curveDoc
			if ok, err := s.Get(key, &got); !ok || err != nil {
				t.Fatalf("%s: Get(%s) = %v, %v", label, key, ok, err)
			}
			if docBits(got) != docBits(want) {
				t.Errorf("%s: %s read back with different bits", label, key)
			}
		}
		if st := s.Stats(); st.SegmentBytes != resultsBytes-resultsTorn || st.DeadBytes == 0 || st.SkippedRecords != 0 {
			t.Errorf("%s: Stats = %+v, want %d valid bytes, the superseded record dead, nothing skipped", label, st, resultsBytes-resultsTorn)
		}
	}

	follower := openTest(t, dir, Config{ReadOnly: true})
	checkStore("follower", follower)
	if got := size(segmentName); got != resultsBytes {
		t.Errorf("follower changed results.seg to %d bytes", got)
	}
	follower.Close()

	writer := openTest(t, dir, Config{})
	checkStore("writer", writer)
	if st := writer.Stats(); st.TruncatedBytes != resultsTorn {
		t.Errorf("TruncatedBytes = %d, want %d", st.TruncatedBytes, resultsTorn)
	}
	if got := size(segmentName); got != resultsBytes-resultsTorn {
		t.Errorf("results.seg holds %d bytes after writer open, want %d", got, resultsBytes-resultsTorn)
	}

	claims := openClaims(t, dir, "node-c", ClaimsConfig{})
	snap, err := claims.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]string{}
	for _, st := range snap {
		got[st.Key] = fmt.Sprintf("%s %s %d %s", st.Owner, st.URL, st.Epoch, st.Scenario)
	}
	wantClaims := map[string]string{
		"hash-4": `node-a http://a 1 {"name":"s4"}`,
		"hash-6": `node-b http://b 2 {"name":"s6"}`,
	}
	if fmt.Sprint(got) != fmt.Sprint(wantClaims) {
		t.Errorf("claims = %v, want %v", got, wantClaims)
	}
	if got := size(claimsSegName); got != claimsBytes-claimsTorn {
		t.Errorf("claims.seg holds %d bytes after reconciliation, want %d", got, claimsBytes-claimsTorn)
	}

	if epoch, err := CurrentEpoch(dir); err != nil || epoch != 2 {
		t.Errorf("CurrentEpoch = %d, %v; want 2", epoch, err)
	}
	info, ok, err := ReadWriterInfo(dir)
	if want := (WriterInfo{Owner: "fixture-writer", URL: "http://w", Epoch: 2, Expires: 1754600000000000000}); err != nil || !ok || info != want {
		t.Errorf("ReadWriterInfo = %+v, %v, %v; want %+v", info, ok, err, want)
	}
}
