package resultstore

import (
	"encoding/json"
	"testing"

	"ahs/internal/segment"
)

// The segment's framing (torn tails, corrupt frames, overlong lengths) is
// fuzzed by internal/segment's FuzzScan. These fuzzers add each record
// codec on top: whatever the scan hands the store's and the claims
// region's decoders, they accept only well-formed records and never
// panic.
//
// CI runs these in regression mode (f.Add seeds + testdata/fuzz entries);
// `go test -fuzz` explores with the mutation engine.

// fuzzFrame frames payload as the segment does on disk.
func fuzzFrame(f *testing.F, payload []byte) []byte {
	b, err := segment.Encode(payload)
	if err != nil {
		f.Fatal(err)
	}
	return b
}

// scanStore indexes a results segment's bytes the way Open does.
func scanStore(data []byte) (s *Store, valid int64, skipped int) {
	s = &Store{index: make(map[string]recordLoc)}
	valid, skipped = segment.Scan(data, s.indexFrame)
	return s, valid, skipped
}

// FuzzStoreScan attacks the store's index build with arbitrary bytes — the
// store reads these back at startup from a file possibly torn, truncated
// or bit-rotted by the crash it is recovering from. The contract matches
// the cluster journal's: malformed input is a cut or a skip, never a
// panic, and the reported valid prefix is self-consistent — rescanning it
// reproduces the identical index, which is what makes the writer's
// startup truncation sound.
func FuzzStoreScan(f *testing.F) {
	good := fuzzFrame(f, []byte(`{"key":"hash-1","value":{"name":"r","unsafety":[1e-13]}}`))
	second := fuzzFrame(f, []byte(`{"key":"hash-2","value":[1,2.5,3]}`))
	undecodable := fuzzFrame(f, []byte(`"crc fine, not a record"`))
	emptyKey := fuzzFrame(f, []byte(`{"key":"","value":1}`))

	f.Add([]byte{})
	f.Add(good)
	f.Add(append(append([]byte{}, good...), second...))
	f.Add(append(append([]byte{}, good...), 0xAA, 0xBB, 0xCC)) // trailing garbage
	f.Add(append(append([]byte{}, undecodable...), good...))   // skip then resume
	f.Add(emptyKey)
	corrupt := append([]byte{}, good...)
	corrupt[10] ^= 0x01
	f.Add(corrupt)
	huge := make([]byte, 16)
	huge[3] = 0xFF // declared length far beyond the buffer
	f.Add(huge)
	zero := fuzzFrame(f, nil) // zero-length payload
	f.Add(zero)

	f.Fuzz(func(t *testing.T, data []byte) {
		s, valid, skipped := scanStore(data)
		if valid < 0 || valid > int64(len(data)) {
			t.Fatalf("valid prefix %d outside [0, %d]", valid, len(data))
		}
		if skipped < 0 {
			t.Fatalf("negative skip count %d", skipped)
		}
		s2, v2, sk2 := scanStore(data[:valid])
		if v2 != valid || len(s2.index) != len(s.index) || s2.dead != s.dead || sk2 != skipped {
			t.Fatalf("rescan of valid prefix diverged: (%d,%d,%d,%d) vs (%d,%d,%d,%d)",
				v2, len(s2.index), s2.dead, sk2, valid, len(s.index), s.dead, skipped)
		}
		for key, loc := range s.index {
			if key == "" {
				t.Fatalf("indexed record has empty key")
			}
			if loc.off < 0 || loc.off+loc.size > valid {
				t.Fatalf("record %q frame [%d,%d) outside valid prefix %d", key, loc.off, loc.off+loc.size, valid)
			}
			// The located frame must hold exactly the record Get would
			// decode: matching checksum, same key, decodable value.
			payload := data[loc.off+segment.HeaderSize : loc.off+loc.size]
			if segment.Checksum(payload) != loc.crc {
				t.Fatalf("record %q located at a frame whose checksum does not match", key)
			}
			var rec segRecord
			if err := json.Unmarshal(payload, &rec); err != nil || rec.Key != key {
				t.Fatalf("record %q located at a frame holding %q (%v)", key, rec.Key, err)
			}
			var v any
			if err := json.Unmarshal(rec.Value, &v); err != nil {
				t.Fatalf("record %q value bytes do not decode: %v", key, err)
			}
		}
	})
}

// FuzzClaimsScan attacks the claims-segment decoder the same way: every
// fleet member appends here under a short flock, and any of them can die
// mid-write, so reconciliation must treat arbitrary trailing bytes as a
// cut or a skip, never a panic — and the valid prefix it reports is what
// the next appender truncates to, so rescanning that prefix must
// reproduce the identical outcome.
func FuzzClaimsScan(f *testing.F) {
	claim := fuzzFrame(f, []byte(`{"key":"hash-1","owner":"node-a","url":"http://a","epoch":1,"op":"claim","expires":1754600000000000000,"scenario":{"name":"s"}}`))
	renew := fuzzFrame(f, []byte(`{"key":"hash-1","owner":"node-a","epoch":1,"op":"renew","expires":1754600001000000000}`))
	release := fuzzFrame(f, []byte(`{"key":"hash-1","owner":"node-a","op":"release","expires":1754600002000000000}`))
	undecodable := fuzzFrame(f, []byte(`[1,2,3]`))
	missingOwner := fuzzFrame(f, []byte(`{"key":"hash-1","op":"claim"}`))

	f.Add([]byte{})
	f.Add(claim)
	f.Add(append(append(append([]byte{}, claim...), renew...), release...))
	f.Add(append(append([]byte{}, claim...), 0x01, 0x02)) // torn tail
	f.Add(append(append([]byte{}, undecodable...), claim...))
	f.Add(missingOwner)
	corrupt := append([]byte{}, claim...)
	corrupt[12] ^= 0x80
	f.Add(corrupt)
	huge := make([]byte, 12)
	huge[3] = 0xFF
	f.Add(huge)

	// scan is scanClaims keeping each accepted record's frame.
	scan := func(data []byte) (valid int64, records []claimRecord, frames []segment.Frame, skipped int) {
		valid, skipped = segment.Scan(data, func(fr segment.Frame) bool {
			rec, ok := decodeClaim(fr.Payload)
			if ok {
				records = append(records, rec)
				frames = append(frames, fr)
			}
			return ok
		})
		return valid, records, frames, skipped
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		valid, records, frames, skipped := scan(data)
		if valid < 0 || valid > int64(len(data)) {
			t.Fatalf("valid prefix %d outside [0, %d]", valid, len(data))
		}
		if skipped < 0 {
			t.Fatalf("negative skip count %d", skipped)
		}
		v2, r2, _, s2 := scan(data[:valid])
		if v2 != valid || len(r2) != len(records) || s2 != skipped {
			t.Fatalf("rescan of valid prefix diverged: (%d,%d,%d) vs (%d,%d,%d)",
				v2, len(r2), s2, valid, len(records), skipped)
		}
		for i, rec := range records {
			if rec.Key == "" || rec.Owner == "" || rec.Op == "" {
				t.Fatalf("record %d missing required fields: %+v", i, rec)
			}
			if fr := frames[i]; fr.Off < 0 || fr.Off+fr.Size() > valid {
				t.Fatalf("record %d frame [%d,%d) outside valid prefix %d", i, fr.Off, fr.Off+fr.Size(), valid)
			}
			if len(rec.Scenario) > 0 && !json.Valid(rec.Scenario) {
				t.Fatalf("record %d carries invalid scenario JSON", i)
			}
		}
	})
}
