package sweep

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"ahs/internal/service"
)

func newTestServer(t *testing.T) (*httptest.Server, *Engine) {
	t.Helper()
	_, eng := newTestEngine(t, service.Config{Eval: newCountingEval().fn}, Config{})
	srv := httptest.NewServer(NewHandler(eng))
	t.Cleanup(srv.Close)
	return srv, eng
}

func getJSON(t *testing.T, url string, v any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if v != nil && resp.StatusCode < 400 {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("decode %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

const testSpecJSON = `{
	"name": "http",
	"base": {"n": 2, "tripHours": [0.5, 1], "batches": 200, "seed": 9},
	"axes": [
		{"param": "strategy", "strings": ["DD", "DC"]},
		{"param": "lambdaPerHour", "values": [0.01, 0.02]}
	]
}`

func TestHTTPSweepLifecycle(t *testing.T) {
	srv, _ := newTestServer(t)

	resp, err := http.Post(srv.URL+"/v1/sweeps", "application/json", strings.NewReader(testSpecJSON))
	if err != nil {
		t.Fatal(err)
	}
	var ack submitResponse
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /v1/sweeps: %d", resp.StatusCode)
	}
	if ack.ID == "" || ack.Points != 4 || ack.UniquePoints != 4 {
		t.Fatalf("ack: %+v", ack)
	}

	// Poll the status endpoint until the sweep settles.
	var view View
	deadline := time.Now().Add(30 * time.Second)
	for {
		if code := getJSON(t, srv.URL+ack.StatusURL, &view); code != http.StatusOK {
			t.Fatalf("GET %s: %d", ack.StatusURL, code)
		}
		if view.Status.Terminal() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("sweep never settled: %+v", view)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if view.Status != StatusDone || view.Completed != 4 {
		t.Fatalf("terminal view: %+v", view)
	}
	if len(view.PointViews) != 4 {
		t.Fatalf("detail endpoint returned %d point views", len(view.PointViews))
	}

	var results []PointResult
	if code := getJSON(t, srv.URL+ack.ResultsURL, &results); code != http.StatusOK {
		t.Fatalf("GET %s: %d", ack.ResultsURL, code)
	}
	if len(results) != 4 {
		t.Fatalf("got %d results", len(results))
	}
	for _, pr := range results {
		if pr.Status != PointDone || pr.Result == nil {
			t.Fatalf("point %d over HTTP: %+v", pr.Index, pr)
		}
	}

	rr, err := http.Get(srv.URL + ack.ReportURL)
	if err != nil {
		t.Fatal(err)
	}
	page, _ := io.ReadAll(rr.Body)
	rr.Body.Close()
	if rr.StatusCode != http.StatusOK || !strings.Contains(rr.Header.Get("Content-Type"), "text/html") {
		t.Fatalf("GET %s: %d %s", ack.ReportURL, rr.StatusCode, rr.Header.Get("Content-Type"))
	}
	for _, want := range []string{"<svg", "Sensitivity", "strategy=DD", "strategy=DC"} {
		if !strings.Contains(string(page), want) {
			t.Errorf("report page lacks %q", want)
		}
	}

	var list []View
	if code := getJSON(t, srv.URL+"/v1/sweeps", &list); code != http.StatusOK || len(list) != 1 {
		t.Fatalf("GET /v1/sweeps: %d, %d entries", code, len(list))
	}
}

func TestHTTPSweepErrors(t *testing.T) {
	srv, _ := newTestServer(t)

	post := func(body string) int {
		resp, err := http.Post(srv.URL+"/v1/sweeps", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var e struct {
			Error string `json:"error"`
		}
		_ = json.NewDecoder(resp.Body).Decode(&e)
		if resp.StatusCode >= 400 && e.Error == "" {
			t.Errorf("error response without an error field (%d)", resp.StatusCode)
		}
		return resp.StatusCode
	}
	if code := post("{not json"); code != http.StatusBadRequest {
		t.Fatalf("malformed body: %d", code)
	}
	if code := post(`{"axes":[]}`); code != http.StatusBadRequest {
		t.Fatalf("invalid spec: %d", code)
	}
	// A structurally valid spec expanding to a statically invalid point is
	// rejected with 400 before any job is created.
	invalidPoint := `{
		"base": {"n": 2, "tripHours": [1], "batches": 100, "seed": 1},
		"axes": [{"param": "strategy", "strings": ["DD", "XX"]}]
	}`
	if code := post(invalidPoint); code != http.StatusBadRequest {
		t.Fatalf("statically invalid point: %d", code)
	}
	if code := getJSON(t, srv.URL+"/v1/sweeps/sweep-404", nil); code != http.StatusNotFound {
		t.Fatalf("unknown sweep: %d", code)
	}
	if code := getJSON(t, srv.URL+"/v1/sweeps/sweep-404/results", nil); code != http.StatusNotFound {
		t.Fatalf("unknown sweep results: %d", code)
	}

	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/sweeps/sweep-404", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("DELETE unknown sweep: %d", resp.StatusCode)
	}
}

func TestHTTPCancelSweep(t *testing.T) {
	srv, eng := newTestServer(t)
	view, err := eng.Submit(&Spec{
		Base: baseScenario(),
		Axes: []Axis{{Param: "lambdaPerHour", Values: []float64{0.01, 0.02}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/sweeps/"+view.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var v View
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || v.ID != view.ID {
		t.Fatalf("DELETE: %d %+v", resp.StatusCode, v)
	}
	// The sweep settles terminally after cancellation (points that already
	// finished stay done — status may be cancelled or done depending on
	// timing, but it must terminate).
	final, err := eng.Wait(waitCtx(t), view.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !final.Status.Terminal() {
		t.Fatalf("sweep still running after cancel: %+v", final)
	}
}
