package cluster

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
)

// Fuzz harnesses for the two byte-level attack surfaces of the cluster
// layer: journal files read back at startup (possibly torn, truncated or
// corrupted by the crash being recovered from) and wire messages arriving
// over HTTP from arbitrary clients. The contract in both cases is the
// same: malformed input is an error (or a cut/skip), never a panic.
//
// CI runs these in regression mode (seed corpus + testdata/fuzz entries);
// `make fuzz` explores with the mutation engine.

// FuzzJournalScan: replay's scan — internal/segment's framing with the
// journal's record decoder — must never panic, must report a valid prefix
// within bounds, and must be self-consistent: rescanning the valid prefix
// reproduces the exact same outcome (this is what makes startup
// truncation sound). internal/segment's FuzzScan fuzzes the framing
// alone; this adds the decoder's contract that only well-formed records
// reach the fold.
func FuzzJournalScan(f *testing.F) {
	good, err := frameRecord(journalRecord{Type: recFinish, Job: 1})
	if err != nil {
		f.Fatal(err)
	}
	sub, err := frameRecord(journalRecord{
		Type: recSubmit, Job: 2, Scenario: testScenario(1000).Canonical(),
		Hash: "h", RoundSize: 500, ChunkBatches: 500,
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add([]byte{})
	f.Add(good)
	f.Add(append(append([]byte{}, sub...), good...))
	f.Add(append(append([]byte{}, good...), 0xAA, 0xBB, 0xCC))
	corrupt := append([]byte{}, good...)
	corrupt[9] ^= 0x01
	f.Add(corrupt)
	huge := make([]byte, 16)
	huge[3] = 0xFF // declared length far beyond the buffer
	f.Add(huge)

	f.Fuzz(func(t *testing.T, data []byte) {
		valid, records, dropped := scanJournal(data)
		if valid < 0 || valid > int64(len(data)) {
			t.Fatalf("valid prefix %d outside [0, %d]", valid, len(data))
		}
		if dropped < 0 || len(records) < 0 {
			t.Fatalf("negative counts: %d records, %d dropped", len(records), dropped)
		}
		v2, r2, d2 := scanJournal(data[:valid])
		if v2 != valid || len(r2) != len(records) || d2 != dropped {
			t.Fatalf("rescan of valid prefix diverged: (%d,%d,%d) vs (%d,%d,%d)",
				v2, len(r2), d2, valid, len(records), dropped)
		}
		for _, rec := range records {
			if !rec.wellFormed() {
				t.Fatalf("scan returned ill-formed record %+v", rec)
			}
		}
	})
}

// FuzzWireDecode: every wire message type decodes arbitrary bytes without
// panicking, and whatever decodes successfully re-encodes.
func FuzzWireDecode(f *testing.F) {
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"workerId":"w1","healthUrl":"http://x/healthz"}`))
	f.Add([]byte(`{"lease":{"id":"lease-1","spec":{"Start":0,"Count":500},"roundSize":500,"ttl":"2m"}}`))
	f.Add([]byte(`{"workerId":"w1","leaseId":"lease-1","state":{"Spec":{"Start":0,"Count":500}}}`))
	f.Add([]byte(`{"pollInterval":"500ms"}`))
	f.Add([]byte(`{"pollInterval":123456}`))
	f.Add([]byte(`{"ttl":"-3h2m"}`))
	f.Add([]byte(`null`))
	f.Add([]byte(`[{"workerId":1}]`))

	f.Fuzz(func(t *testing.T, data []byte) {
		targets := []any{
			&registerRequest{}, &registerResponse{},
			&leaseRequest{}, &leaseResponse{},
			&completeRequest{}, &completeResponse{},
			&deregisterRequest{}, &deregisterResponse{},
			&Lease{}, &Status{},
		}
		for _, target := range targets {
			if err := json.Unmarshal(data, target); err != nil {
				continue
			}
			if _, err := json.Marshal(target); err != nil {
				t.Fatalf("decoded %T does not re-encode: %v", target, err)
			}
		}
		var d duration
		_ = d.UnmarshalJSON(data)
	})
}

// FuzzClusterHandlers throws arbitrary bodies at every wire endpoint of a
// live coordinator. Whatever arrives, the coordinator answers with one of
// its documented statuses and keeps serving.
func FuzzClusterHandlers(f *testing.F) {
	coord := New(Config{})
	defer coord.Close()
	handler := coord.Handler()
	paths := []string{PathRegister, PathLease, PathComplete, PathDeregister}

	f.Add(byte(0), []byte(`{}`))
	f.Add(byte(0), []byte(`{"workerId":"w1"}`))
	f.Add(byte(1), []byte(`{"workerId":"w1"}`))
	f.Add(byte(2), []byte(`{"workerId":"w1","leaseId":"lease-9"}`))
	f.Add(byte(3), []byte(`{"workerId":"w1"}`))
	f.Add(byte(2), []byte(`{"workerId":"w1","leaseId":"lease-1","state":{"Spec":{"Start":0,"Count":18446744073709551615}}}`))
	f.Add(byte(1), []byte(`garbage`))

	allowed := map[int]bool{
		http.StatusOK: true, http.StatusBadRequest: true,
		http.StatusForbidden: true, http.StatusNotFound: true,
	}
	f.Fuzz(func(t *testing.T, which byte, body []byte) {
		path := paths[int(which)%len(paths)]
		req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, req)
		if !allowed[rec.Code] {
			t.Fatalf("POST %s with %d-byte body answered %d, want one of 200/400/403/404", path, len(body), rec.Code)
		}
	})
}
