package resultstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ahs/internal/segment"
	"ahs/internal/telemetry"
)

// curveDoc is the shape the service layer stores: a name plus float64
// slices whose bits must survive the round-trip exactly.
type curveDoc struct {
	Name     string    `json:"name"`
	Times    []float64 `json:"times"`
	Unsafety []float64 `json:"unsafety"`
	CILo     []float64 `json:"ciLo"`
	CIHi     []float64 `json:"ciHi"`
	Batches  uint64    `json:"batches"`
}

// testDoc builds a deterministic document with awkward float64s: tiny
// unsafety magnitudes like the paper's 1e-13 regime, values with no short
// decimal form, and exact powers of two.
func testDoc(seed uint64) curveDoc {
	d := curveDoc{Name: fmt.Sprintf("doc-%d", seed), Batches: 100 * seed}
	for i := uint64(0); i < 8; i++ {
		x := float64(seed*1000+i) / 3.0
		d.Times = append(d.Times, x)
		d.Unsafety = append(d.Unsafety, math.Exp(-x)*1e-13)
		d.CILo = append(d.CILo, math.Nextafter(d.Unsafety[i], 0))
		d.CIHi = append(d.CIHi, math.Nextafter(d.Unsafety[i], 1))
	}
	return d
}

// docBits renders every float with %b (mantissa·2^exp), so equality is
// bit-equality, not approximate.
func docBits(d curveDoc) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s/%d", d.Name, d.Batches)
	for _, s := range [][]float64{d.Times, d.Unsafety, d.CILo, d.CIHi} {
		for _, f := range s {
			fmt.Fprintf(&b, " %b", f)
		}
	}
	return b.String()
}

func openTest(t *testing.T, dir string, cfg Config) *Store {
	t.Helper()
	cfg.Dir = dir
	cfg.Logf = t.Logf
	s, err := Open(cfg)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// TestRoundTripBitIdentical is the %b golden test: a stored curve read
// back — same handle, after reopen, and through a follower — renders
// bit-identically to the original. encoding/json's shortest-round-trip
// float encoding is what makes the persistent tier semantically free.
func TestRoundTripBitIdentical(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Config{})
	want := make(map[string]string)
	for seed := uint64(1); seed <= 10; seed++ {
		d := testDoc(seed)
		key := fmt.Sprintf("hash-%d", seed)
		if err := s.Put(key, d); err != nil {
			t.Fatalf("Put(%s): %v", key, err)
		}
		want[key] = docBits(d)
	}
	check := func(label string, get func(key string, v any) (bool, error)) {
		t.Helper()
		for key, bits := range want {
			var got curveDoc
			ok, err := get(key, &got)
			if err != nil || !ok {
				t.Fatalf("%s: Get(%s) = %v, %v", label, key, ok, err)
			}
			if docBits(got) != bits {
				t.Errorf("%s: %s read back with different bits\n got %s\nwant %s", label, key, docBits(got), bits)
			}
		}
	}
	check("same handle", s.Get)

	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := openTest(t, dir, Config{})
	check("after reopen", s2.Get)

	follower := openTest(t, dir, Config{ReadOnly: true})
	check("follower", follower.Get)
}

func TestGetMiss(t *testing.T) {
	s := openTest(t, t.TempDir(), Config{})
	var v curveDoc
	ok, err := s.Get("absent", &v)
	if err != nil || ok {
		t.Fatalf("Get(absent) = %v, %v; want false, nil", ok, err)
	}
	if s.Has("absent") {
		t.Error("Has(absent) = true")
	}
}

// TestTornTailTruncated proves the corrupt-tail discipline: garbage after
// the last valid frame is cut on writer open, every preceding record
// survives, and the segment accepts appends again.
func TestTornTailTruncated(t *testing.T) {
	for _, tc := range []struct {
		name string
		tail []byte
	}{
		{"partial header", []byte{1, 2, 3}},
		{"declared length past EOF", func() []byte {
			b := make([]byte, 8)
			binary.LittleEndian.PutUint32(b, 1<<20)
			return append(b, "short"...)
		}()},
		{"crc mismatch", func() []byte {
			payload := []byte(`{"key":"x","value":{}}`)
			b := make([]byte, 8+len(payload))
			binary.LittleEndian.PutUint32(b[0:4], uint32(len(payload)))
			binary.LittleEndian.PutUint32(b[4:8], 0xdeadbeef)
			copy(b[8:], payload)
			return b
		}()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s := openTest(t, dir, Config{})
			d := testDoc(1)
			if err := s.Put("k1", d); err != nil {
				t.Fatal(err)
			}
			if err := s.Put("k2", testDoc(2)); err != nil {
				t.Fatal(err)
			}
			s.Close()

			segPath := filepath.Join(dir, segmentName)
			f, err := os.OpenFile(segPath, os.O_APPEND|os.O_WRONLY, 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Write(tc.tail); err != nil {
				t.Fatal(err)
			}
			f.Close()

			s2 := openTest(t, dir, Config{})
			st := s2.Stats()
			if st.TruncatedBytes != int64(len(tc.tail)) {
				t.Errorf("TruncatedBytes = %d, want %d", st.TruncatedBytes, len(tc.tail))
			}
			if st.Entries != 2 {
				t.Errorf("Entries = %d, want 2", st.Entries)
			}
			var got curveDoc
			if ok, err := s2.Get("k1", &got); !ok || err != nil {
				t.Fatalf("Get(k1) after truncation = %v, %v", ok, err)
			}
			if docBits(got) != docBits(d) {
				t.Error("k1 bits changed across truncation")
			}
			// The cut tail must not poison later appends.
			if err := s2.Put("k3", testDoc(3)); err != nil {
				t.Fatal(err)
			}
			s2.Close()
			s3 := openTest(t, dir, Config{})
			if got := s3.Len(); got != 3 {
				t.Errorf("after re-append: %d entries, want 3", got)
			}
		})
	}
}

// TestSupersedeAndCompact: re-Putting a key leaves dead bytes; Compact
// reclaims them, keeps only the newest value per key, preserves insertion
// order, and the store reopens cleanly from the compacted segment.
func TestSupersedeAndCompact(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Config{})
	for seed := uint64(1); seed <= 5; seed++ {
		if err := s.Put(fmt.Sprintf("k%d", seed), testDoc(seed)); err != nil {
			t.Fatal(err)
		}
	}
	// Supersede k2 twice; the latest version must win.
	final := testDoc(22)
	if err := s.Put("k2", testDoc(12)); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("k2", final); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.DeadBytes <= 0 {
		t.Fatalf("DeadBytes = %d after supersede, want > 0", st.DeadBytes)
	}
	before := st.SegmentBytes

	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	st = s.Stats()
	if st.DeadBytes != 0 {
		t.Errorf("DeadBytes = %d after compact, want 0", st.DeadBytes)
	}
	if st.SegmentBytes >= before {
		t.Errorf("segment %d bytes after compact, want < %d", st.SegmentBytes, before)
	}
	if st.Compactions != 1 {
		t.Errorf("Compactions = %d, want 1", st.Compactions)
	}
	wantKeys := []string{"k1", "k2", "k3", "k4", "k5"}
	if got := fmt.Sprint(s.Keys()); got != fmt.Sprint(wantKeys) {
		t.Errorf("Keys() = %v, want %v", s.Keys(), wantKeys)
	}
	var got curveDoc
	if ok, err := s.Get("k2", &got); !ok || err != nil {
		t.Fatalf("Get(k2) = %v, %v", ok, err)
	}
	if docBits(got) != docBits(final) {
		t.Error("k2 lost its newest value across compaction")
	}
	// Appends continue on the swapped handle, and a reopen sees everything.
	if err := s.Put("k6", testDoc(6)); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s2 := openTest(t, dir, Config{})
	if s2.Len() != 6 {
		t.Errorf("reopen after compact: %d entries, want 6", s2.Len())
	}
}

// TestAutoCompaction: once dead bytes pass the configured floor and exceed
// live bytes, Put compacts without being asked.
func TestAutoCompaction(t *testing.T) {
	s := openTest(t, t.TempDir(), Config{CompactMinDead: 1})
	for i := 0; i < 8; i++ {
		if err := s.Put("same-key", testDoc(uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.Compactions == 0 {
		t.Fatalf("no automatic compaction after 8 supersedes: %+v", st)
	}
	var got curveDoc
	if ok, err := s.Get("same-key", &got); !ok || err != nil {
		t.Fatalf("Get = %v, %v", ok, err)
	}
	if docBits(got) != docBits(testDoc(7)) {
		t.Error("auto-compaction did not keep the newest value")
	}
}

// TestWriterLockExcludesSecondWriter: one directory, one writer. Readers
// are always admitted.
func TestWriterLockExcludesSecondWriter(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Config{})
	if _, err := Open(Config{Dir: dir}); !errors.Is(err, segment.ErrLocked) {
		t.Fatalf("second writer Open = %v, want ErrLocked", err)
	}
	follower := openTest(t, dir, Config{ReadOnly: true})
	if !follower.ReadOnly() {
		t.Error("follower not read-only")
	}
	if err := follower.Put("k", testDoc(1)); !errors.Is(err, ErrReadOnly) {
		t.Errorf("follower Put = %v, want ErrReadOnly", err)
	}
	// Releasing the writer admits a new one.
	s.Close()
	s2 := openTest(t, dir, Config{})
	if err := s2.Put("k", testDoc(1)); err != nil {
		t.Fatal(err)
	}
}

// TestFollowerSeesLiveAppends: a follower opened before any data arrives
// picks up the writer's Puts without reopening — including across a
// writer-side compaction that replaces the segment file under it.
func TestFollowerSeesLiveAppends(t *testing.T) {
	dir := t.TempDir()
	follower := openTest(t, dir, Config{ReadOnly: true}) // before the segment exists
	writer := openTest(t, dir, Config{})

	d1 := testDoc(1)
	if err := writer.Put("k1", d1); err != nil {
		t.Fatal(err)
	}
	var got curveDoc
	if ok, err := follower.Get("k1", &got); !ok || err != nil {
		t.Fatalf("follower Get(k1) = %v, %v", ok, err)
	}
	if docBits(got) != docBits(d1) {
		t.Error("follower read different bits than written")
	}

	// Compaction renames a new segment over the one the follower holds.
	if err := writer.Put("k1", testDoc(11)); err != nil {
		t.Fatal(err)
	}
	if err := writer.Put("k2", testDoc(2)); err != nil {
		t.Fatal(err)
	}
	if err := writer.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := writer.Put("k3", testDoc(3)); err != nil {
		t.Fatal(err)
	}
	if err := follower.Refresh(); err != nil {
		t.Fatalf("Refresh across compaction: %v", err)
	}
	if follower.Len() != 3 {
		t.Fatalf("follower sees %d entries after compaction, want 3", follower.Len())
	}
	if ok, err := follower.Get("k1", &got); !ok || err != nil {
		t.Fatalf("follower Get(k1) post-compact = %v, %v", ok, err)
	}
	if docBits(got) != docBits(testDoc(11)) {
		t.Error("follower read the superseded value after compaction")
	}
	if !follower.Has("k3") {
		t.Error("follower missing post-compaction append k3")
	}
}

// TestCorruptRecordFailsGet: bit rot inside a live record surfaces as a
// CRC error on read, never as silently wrong data.
func TestCorruptRecordFailsGet(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Config{})
	if err := s.Put("k1", testDoc(1)); err != nil {
		t.Fatal(err)
	}
	// Flip one payload byte in place (offset 8 is inside the JSON).
	f, err := os.OpenFile(filepath.Join(dir, segmentName), os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	buf := []byte{0}
	if _, err := f.ReadAt(buf, 12); err != nil {
		t.Fatal(err)
	}
	buf[0] ^= 0xff
	if _, err := f.WriteAt(buf, 12); err != nil {
		t.Fatal(err)
	}
	f.Close()

	var got curveDoc
	if _, err := s.Get("k1", &got); err == nil || !strings.Contains(err.Error(), "CRC") {
		t.Fatalf("Get on corrupted record = %v, want CRC error", err)
	}
}

// TestSkippedUndecodableFrame: a CRC-valid frame whose payload is not a
// usable record is skipped — the scan continues past it and later records
// survive.
func TestSkippedUndecodableFrame(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Config{})
	if err := s.Put("k1", testDoc(1)); err != nil {
		t.Fatal(err)
	}
	s.Close()

	// Append a frame that checksums correctly but is not a record.
	frame, err := segment.Encode([]byte(`"not a record"`))
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(filepath.Join(dir, segmentName), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(frame); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2 := openTest(t, dir, Config{})
	st := s2.Stats()
	if st.SkippedRecords != 1 {
		t.Errorf("SkippedRecords = %d, want 1", st.SkippedRecords)
	}
	if st.TruncatedBytes != 0 {
		t.Errorf("TruncatedBytes = %d, want 0 (frame is CRC-valid)", st.TruncatedBytes)
	}
	if !s2.Has("k1") {
		t.Error("record before the skipped frame lost")
	}
	if err := s2.Put("k2", testDoc(2)); err != nil {
		t.Fatal(err)
	}
	if !s2.Has("k2") {
		t.Error("append after skipped frame lost")
	}
}

// TestTelemetryFamilies: the ahs_store_* families register and track.
func TestTelemetryFamilies(t *testing.T) {
	reg := telemetry.NewRegistry()
	s := openTest(t, t.TempDir(), Config{Telemetry: reg})
	if err := s.Put("k1", testDoc(1)); err != nil {
		t.Fatal(err)
	}
	var v curveDoc
	if _, err := s.Get("k1", &v); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get("absent", &v); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := reg.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if err := telemetry.ValidateText(strings.NewReader(out)); err != nil {
		t.Fatalf("exposition invalid: %v", err)
	}
	for _, want := range []string{
		"ahs_store_puts_total 1",
		"ahs_store_gets_hit_total 1",
		"ahs_store_gets_miss_total 1",
		"ahs_store_entries 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestEmptyAndBadInputs pins the small-print contract.
func TestEmptyAndBadInputs(t *testing.T) {
	s := openTest(t, t.TempDir(), Config{})
	if err := s.Put("", testDoc(1)); err == nil {
		t.Error("Put with empty key accepted")
	}
	if err := s.Put("k", func() {}); err == nil {
		t.Error("Put with unmarshalable value accepted")
	}
	s.Close()
	if err := s.Put("k", testDoc(1)); !errors.Is(err, ErrClosed) {
		t.Errorf("Put after Close = %v, want ErrClosed", err)
	}
	var v curveDoc
	if _, err := s.Get("k", &v); !errors.Is(err, ErrClosed) {
		t.Errorf("Get after Close = %v, want ErrClosed", err)
	}
	if _, err := Open(Config{}); err == nil {
		t.Error("Open without Dir accepted")
	}
}
