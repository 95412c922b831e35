package segment

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// frame encodes payload, failing the test on error.
func frame(t testing.TB, payload string) []byte {
	t.Helper()
	f, err := Encode([]byte(payload))
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// isObject is the decoder the tests use: it accepts JSON objects and
// rejects everything else, as the record codecs do.
func isObject(p []byte) bool { return len(p) > 0 && p[0] == '{' && json.Valid(p) }

// collect scans data, recording every CRC-valid payload handed to the
// decoder, accepted or not.
func collect(data []byte) (valid int64, skipped int, frames []Frame) {
	valid, skipped = Scan(data, func(fr Frame) bool {
		frames = append(frames, fr)
		return isObject(fr.Payload)
	})
	return valid, skipped, frames
}

func TestEncodeLayout(t *testing.T) {
	payload := []byte(`{"k":1}`)
	f := frame(t, string(payload))
	if n := binary.LittleEndian.Uint32(f[0:4]); n != uint32(len(payload)) {
		t.Errorf("length field = %d, want %d", n, len(payload))
	}
	if sum := binary.LittleEndian.Uint32(f[4:8]); sum != Checksum(payload) {
		t.Errorf("CRC field = %#x, want %#x", sum, Checksum(payload))
	}
	if !bytes.Equal(f[HeaderSize:], payload) {
		t.Errorf("payload = %q, want %q", f[HeaderSize:], payload)
	}
	// CRC-32C (Castagnoli), not IEEE: the check value of "123456789".
	if got := Checksum([]byte("123456789")); got != 0xe3069283 {
		t.Errorf("Checksum(123456789) = %#x, want the CRC-32C check value 0xe3069283", got)
	}
}

// TestScanEdges: empty and sub-header inputs scan to nothing, and a frame
// whose declared length overruns the buffer is torn.
func TestScanEdges(t *testing.T) {
	for _, data := range [][]byte{nil, {}, {1, 2, 3}, make([]byte, 7)} {
		valid, skipped, frames := collect(data)
		if valid != 0 || len(frames) != 0 || skipped != 0 {
			t.Errorf("Scan(%v) = (%d, %d frames, %d skipped), want zeros", data, valid, len(frames), skipped)
		}
	}
	huge := make([]byte, 16)
	binary.LittleEndian.PutUint32(huge[0:4], 1<<30)
	if valid, _, frames := collect(huge); valid != 0 || len(frames) != 0 {
		t.Errorf("overlong frame scanned to (%d, %d frames), want zeros", valid, len(frames))
	}
}

// TestScanSkipsRejectedAndStopsAtCorruption: a rejected payload is counted
// and scanning continues past it; a CRC mismatch ends the valid prefix.
func TestScanSkipsRejectedAndStopsAtCorruption(t *testing.T) {
	a, rejected, b := frame(t, `{"a":1}`), frame(t, `[1,2]`), frame(t, `{"b":2}`)
	data := bytes.Join([][]byte{a, rejected, b}, nil)
	valid, skipped, frames := collect(data)
	if valid != int64(len(data)) || skipped != 1 || len(frames) != 3 {
		t.Fatalf("Scan = (%d of %d bytes, %d frames, %d skipped), want all 3 frames, 1 skipped", valid, len(data), len(frames), skipped)
	}
	if frames[2].Off != int64(len(a)+len(rejected)) || frames[2].Size() != int64(len(b)) || frames[2].CRC != Checksum(frames[2].Payload) {
		t.Errorf("third frame = %+v, want it located at %d", frames[2], len(a)+len(rejected))
	}

	corrupt := append([]byte{}, data...)
	corrupt[len(a)+HeaderSize] ^= 0x01 // inside the second frame's payload
	if valid, _, frames := collect(corrupt); valid != int64(len(a)) || len(frames) != 1 {
		t.Errorf("corrupt second frame: Scan = (%d, %d frames), want (%d, 1)", valid, len(frames), len(a))
	}
}

// TestOpenCutsTornTail: opening for append folds the valid frames, cuts a
// torn tail, and appends where the valid prefix ends.
func TestOpenCutsTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.seg")
	a, b := frame(t, `{"a":1}`), frame(t, `{"b":2}`)
	torn := b[:len(b)-3]
	if err := os.WriteFile(path, append(append([]byte{}, a...), torn...), 0o644); err != nil {
		t.Fatal(err)
	}
	var seen []string
	decode := func(fr Frame) bool { seen = append(seen, string(fr.Payload)); return true }
	l, sc, err := Open(path, false, decode)
	if err != nil {
		t.Fatal(err)
	}
	if sc.Cut != int64(len(torn)) || sc.Skipped != 0 || l.End() != int64(len(a)) {
		t.Fatalf("Open = (cut %d, skipped %d, end %d), want (cut %d, skipped 0, end %d)", sc.Cut, sc.Skipped, l.End(), len(torn), len(a))
	}
	if len(seen) != 1 || seen[0] != `{"a":1}` {
		t.Fatalf("decoded %q, want just the first frame", seen)
	}
	fr, err := l.Append([]byte(`{"b":2}`), nil)
	if err != nil {
		t.Fatal(err)
	}
	if fr.Off != int64(len(a)) || fr.Size() != int64(len(b)) || fr.CRC != Checksum([]byte(`{"b":2}`)) {
		t.Errorf("Append returned %+v, want the frame at %d", fr, len(a))
	}
	l.Close()
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := append(append([]byte{}, a...), b...); !bytes.Equal(got, want) {
		t.Errorf("file after append = %x, want %x", got, want)
	}
}

// TestAppendOverwritesFailedWrite: bytes a failed write left past the
// valid end (a short write on a full disk) are overwritten by the next
// append instead of stranding it behind garbage.
func TestAppendOverwritesFailedWrite(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.seg")
	l, _, err := Open(path, false, func(Frame) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append([]byte(`{"n":1}`), nil); err != nil {
		t.Fatal(err)
	}
	half := frame(t, `{"n":2,"pad":"xxxxxxxxxxxxxxxxxxxxxxxx"}`)
	half = half[:len(half)/2]
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(half); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, err := l.Append([]byte(`{"n":3}`), nil); err != nil {
		t.Fatal(err)
	}
	l.Close()

	var seen []string
	l2, sc, err := Open(path, false, func(fr Frame) bool { seen = append(seen, string(fr.Payload)); return true })
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if len(seen) != 2 || seen[0] != `{"n":1}` || seen[1] != `{"n":3}` {
		t.Fatalf("reopen decoded %q, want records 1 and 3", seen)
	}
	if sc.Cut == 0 {
		t.Error("the failed write's leftover bytes were not cut on reopen")
	}
}

// TestBeforeSyncRunsAfterWrite: the hook sees the frame written but End
// not yet advanced.
func TestBeforeSyncRunsAfterWrite(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.seg")
	l, _, err := Open(path, true, func(Frame) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var sizeAtHook, endAtHook int64 = -1, -1
	fr, err := l.Append([]byte(`{}`), func() {
		fi, _ := os.Stat(path)
		sizeAtHook, endAtHook = fi.Size(), l.End()
	})
	if err != nil {
		t.Fatal(err)
	}
	if sizeAtHook != fr.Size() || endAtHook != 0 || l.End() != fr.Size() {
		t.Errorf("hook saw size %d, end %d; after: end %d; want %d, 0, %d", sizeAtHook, endAtHook, l.End(), fr.Size(), fr.Size())
	}
}

// TestFollowCatchUp: a follower never cuts another process's torn tail,
// and CatchUp picks up frames appended after it.
func TestFollowCatchUp(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.seg")
	if _, _, err := Follow(path, nil); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("Follow(missing) = %v, want ErrNotExist", err)
	}
	w, _, err := Open(path, false, func(Frame) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if _, err := w.Append([]byte(`{"n":1}`), nil); err != nil {
		t.Fatal(err)
	}
	// A half-written frame, as a writer mid-append leaves it.
	partial := frame(t, `{"n":2}`)[:5]
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write(partial)
	f.Close()

	n := 0
	count := func(Frame) bool { n++; return true }
	r, sc, err := Follow(path, count)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if n != 1 || sc.Cut != 0 {
		t.Fatalf("Follow folded %d frames, cut %d; want 1, 0", n, sc.Cut)
	}
	if fi, _ := os.Stat(path); fi.Size() != w.End()+int64(len(partial)) {
		t.Fatalf("follower changed the file: %d bytes", fi.Size())
	}
	if _, err := r.Append([]byte(`{}`), nil); err == nil {
		t.Error("Append on a followed log succeeded")
	}

	if _, err := w.Append([]byte(`{"n":2}`), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := r.CatchUp(count); err != nil {
		t.Fatal(err)
	}
	if n != 2 || r.End() != w.End() {
		t.Errorf("after CatchUp: %d frames, end %d; want 2, %d", n, r.End(), w.End())
	}
}

// TestRewrite: the replacement is atomic — the hook runs while the old
// file is still in place, a failed write leaves the old file untouched —
// the handle moves onto the new file, and a follower sees it replaced.
func TestRewrite(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "log.seg")
	l, _, err := Open(path, false, func(Frame) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for _, p := range []string{`{"n":1}`, `{"n":2}`} {
		if _, err := l.Append([]byte(p), nil); err != nil {
			t.Fatal(err)
		}
	}
	before, _ := os.ReadFile(path)
	follower, _, err := Follow(path, func(Frame) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()

	boom := errors.New("boom")
	if err := l.Rewrite(func(w io.Writer) error { return boom }, nil); !errors.Is(err, boom) {
		t.Fatalf("failed Rewrite = %v, want %v", err, boom)
	}
	if got, _ := os.ReadFile(path); !bytes.Equal(got, before) {
		t.Fatal("failed Rewrite changed the file")
	}

	keep := frame(t, `{"n":2}`)
	var atHook []byte
	err = l.Rewrite(func(w io.Writer) error {
		_, err := w.Write(keep)
		return err
	}, func() { atHook, _ = os.ReadFile(path) })
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(atHook, before) {
		t.Error("beforeRename ran after the file was replaced")
	}
	if got, _ := os.ReadFile(path); !bytes.Equal(got, keep) {
		t.Errorf("rewritten file = %q, want %q", got, keep)
	}
	if l.End() != int64(len(keep)) {
		t.Errorf("End after Rewrite = %d, want %d", l.End(), len(keep))
	}
	if fi, _ := os.Stat(path); fi.Mode().Perm() != 0o644 {
		t.Errorf("rewritten file mode = %v, want 0644", fi.Mode().Perm())
	}
	if replaced, err := follower.Replaced(); err != nil || !replaced {
		t.Errorf("follower Replaced = %v, %v; want true", replaced, err)
	}
	if replaced, err := l.Replaced(); err != nil || replaced {
		t.Errorf("writer Replaced = %v, %v; want false", replaced, err)
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 1 {
		t.Errorf("directory holds %d entries, want only the log (temporary files left behind)", len(entries))
	}

	// Appends continue on the new file.
	if _, err := l.Append([]byte(`{"n":3}`), nil); err != nil {
		t.Fatal(err)
	}
	if err := l.Reset(); err != nil || l.End() != 0 {
		t.Fatalf("Reset = %v, end %d", err, l.End())
	}
	if fi, _ := os.Stat(path); fi.Size() != 0 {
		t.Errorf("file holds %d bytes after Reset", fi.Size())
	}
}

// FuzzScan attacks the frame scanner with arbitrary bytes — every log in
// the stack reads these back at startup from a file possibly torn,
// truncated or bit-rotted by the crash it is recovering from. Malformed
// input is a cut or a skip, never a panic, and the valid prefix is exactly
// what the scan accounted for: rescanning it reproduces the outcome (which
// makes cutting a torn tail sound), and re-framing the scanned payloads
// reproduces its bytes.
//
// The seeds are journal, result-store and claims frames; the committed
// corpus under testdata/fuzz/FuzzScan runs in every plain "go test".
func FuzzScan(f *testing.F) {
	// Cluster journal records.
	finish := frame(f, `{"type":"finish","job":1}`)
	submit := frame(f, `{"type":"submit","job":2,"scenario":{"name":"e2e","n":2,"lanes":2,"lambdaPerHour":0.01,"strategy":"DD","joinRatePerHour":12,"leaveRatePerHour":4,"changeRatePerHour":6,"passThroughPerHour":17.142857142857142,"maneuverRatesPerHour":{"AS":15,"CS":30,"GS":20,"TIE":25,"TIE-E":20,"TIE-N":30},"maneuverBaseFailure":0.02,"participantFailure":0.02,"degradedPenalty":0.2,"tripHours":[0.5,1],"batches":1000,"seed":42},"hash":"h","roundSize":500,"chunkBatches":500}`)
	f.Add([]byte{})
	f.Add(finish)
	f.Add(cat(submit, finish))
	f.Add(cat(finish, []byte{0xAA, 0xBB, 0xCC})) // trailing garbage
	f.Add(flip(finish, 9, 0x01))
	huge := make([]byte, 16)
	huge[3] = 0xFF // declared length far beyond the buffer
	f.Add(huge)

	// Result-store records.
	result := frame(f, `{"key":"hash-1","value":{"name":"r","unsafety":[1e-13]}}`)
	f.Add(result)
	f.Add(cat(result, frame(f, `{"key":"hash-2","value":[1,2.5,3]}`)))
	f.Add(cat(result, []byte{0xAA, 0xBB, 0xCC}))
	f.Add(cat(frame(f, `"crc fine, not a record"`), result)) // skip then resume
	f.Add(frame(f, `{"key":"","value":1}`))
	f.Add(flip(result, 10, 0x01))
	f.Add(frame(f, "")) // zero-length payload

	// Claims records.
	claim := frame(f, `{"key":"hash-1","owner":"node-a","url":"http://a","epoch":1,"op":"claim","expires":1754600000000000000,"scenario":{"name":"s"}}`)
	f.Add(claim)
	f.Add(cat(claim,
		frame(f, `{"key":"hash-1","owner":"node-a","epoch":1,"op":"renew","expires":1754600001000000000}`),
		frame(f, `{"key":"hash-1","owner":"node-a","op":"release","expires":1754600002000000000}`)))
	f.Add(cat(claim, []byte{0x01, 0x02})) // torn tail
	f.Add(cat(frame(f, `[1,2,3]`), claim))
	f.Add(frame(f, `{"key":"hash-1","op":"claim"}`))
	f.Add(flip(claim, 12, 0x80))
	huge12 := make([]byte, 12)
	huge12[3] = 0xFF
	f.Add(huge12)

	f.Fuzz(func(t *testing.T, data []byte) {
		valid, skipped, frames := collect(data)
		if valid < 0 || valid > int64(len(data)) {
			t.Fatalf("valid prefix %d outside [0, %d]", valid, len(data))
		}
		if skipped < 0 || skipped > len(frames) {
			t.Fatalf("skipped %d of %d frames", skipped, len(frames))
		}
		v2, s2, f2 := collect(data[:valid])
		if v2 != valid || s2 != skipped || len(f2) != len(frames) {
			t.Fatalf("rescan of valid prefix diverged: (%d,%d,%d) vs (%d,%d,%d)",
				v2, s2, len(f2), valid, skipped, len(frames))
		}
		var reframed []byte
		for i, fr := range frames {
			if fr.Off != int64(len(reframed)) || fr.CRC != Checksum(fr.Payload) {
				t.Fatalf("frame %d: offset %d, CRC %#x; want %d, %#x", i, fr.Off, fr.CRC, len(reframed), Checksum(fr.Payload))
			}
			b, err := Encode(fr.Payload)
			if err != nil {
				t.Fatalf("frame %d does not re-encode: %v", i, err)
			}
			reframed = append(reframed, b...)
		}
		if !bytes.Equal(reframed, data[:valid]) {
			t.Fatalf("re-framed payloads differ from the valid prefix:\n got %x\nwant %x", reframed, data[:valid])
		}
	})
}

func cat(parts ...[]byte) []byte { return bytes.Join(parts, nil) }

// flip returns a copy of b with byte i XORed with mask.
func flip(b []byte, i int, mask byte) []byte {
	c := append([]byte{}, b...)
	c[i] ^= mask
	return c
}
