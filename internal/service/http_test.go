package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

const tinyScenarioJSON = `{
	"name": "http-test",
	"n": 2,
	"lambdaPerHour": 0.01,
	"tripHours": [0.5, 1],
	"batches": 200,
	"seed": 1
}`

func newTestServer(t *testing.T, cfg Config) (*httptest.Server, *Manager) {
	t.Helper()
	m := NewManager(cfg)
	srv := httptest.NewServer(NewHandler(m))
	t.Cleanup(func() {
		srv.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = m.Shutdown(ctx)
	})
	return srv, m
}

func postScenario(t *testing.T, srv *httptest.Server, body string) (*http.Response, evaluateResponse) {
	t.Helper()
	resp, err := http.Post(srv.URL+"/v1/evaluate", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var ack evaluateResponse
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
			t.Fatal(err)
		}
	}
	return resp, ack
}

func getJSON(t *testing.T, url string, v any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if v != nil {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("%s: %v", url, err)
		}
	}
	return resp
}

func TestHTTPEvaluatePollResultHappyPath(t *testing.T) {
	srv, _ := newTestServer(t, Config{Workers: 1})

	resp, ack := postScenario(t, srv, tinyScenarioJSON)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ack.ID == "" || ack.Cached || ack.StatusURL != "/v1/jobs/"+ack.ID {
		t.Fatalf("ack %+v", ack)
	}

	deadline := time.Now().Add(30 * time.Second)
	var view JobView
	for {
		if getJSON(t, srv.URL+ack.StatusURL, &view); view.Status.Terminal() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never finished: %+v", view)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if view.Status != StatusDone {
		t.Fatalf("view %+v", view)
	}
	if view.Progress.BatchesDone != 200 || view.Progress.MaxBatches != 200 {
		t.Fatalf("progress %+v", view.Progress)
	}

	var res Result
	if resp := getJSON(t, srv.URL+ack.ResultURL, &res); resp.StatusCode != http.StatusOK {
		t.Fatalf("result status %d", resp.StatusCode)
	}
	if res.Name != "http-test" || res.Batches != 200 || len(res.Unsafety) != 2 {
		t.Fatalf("result %+v", res)
	}
}

func TestHTTPCacheHitOnRepeatedScenario(t *testing.T) {
	srv, m := newTestServer(t, Config{Workers: 1})

	_, first := postScenario(t, srv, tinyScenarioJSON)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := m.Wait(ctx, first.ID); err != nil {
		t.Fatal(err)
	}

	resp, second := postScenario(t, srv, tinyScenarioJSON)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cache hit status %d", resp.StatusCode)
	}
	if !second.Cached || second.Status != StatusDone || second.ID == first.ID {
		t.Fatalf("ack %+v", second)
	}

	var one, two Result
	getJSON(t, srv.URL+"/v1/results/"+first.ID, &one)
	getJSON(t, srv.URL+"/v1/results/"+second.ID, &two)
	if one.Unsafety[1] != two.Unsafety[1] || one.ScenarioHash != two.ScenarioHash {
		t.Fatalf("cached result differs: %+v vs %+v", one, two)
	}

	// The acceptance check: the hit is observable on /metrics.
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status %d", resp.StatusCode)
	}
	for _, want := range []string{"ahs_service_cache_hits_total 1", "ahs_service_cache_misses_total 1"} {
		if !strings.Contains("\n"+string(body), "\n"+want+"\n") {
			t.Fatalf("metrics lack %q:\n%s", want, body)
		}
	}
}

func TestHTTPRejectsMalformedScenarios(t *testing.T) {
	srv, _ := newTestServer(t, Config{Workers: 1})
	cases := map[string]string{
		"not json":        `{"n": `,
		"unknown field":   `{"n":2,"lambdaPerHour":0.01,"tripHours":[1],"definitelyNotAField":1}`,
		"missing grid":    `{"n":2,"lambdaPerHour":0.01}`,
		"bad maneuver":    `{"n":2,"lambdaPerHour":0.01,"tripHours":[1],"maneuverRatesPerHour":{"XX":1}}`,
		"invalid params":  `{"n":0,"lambdaPerHour":0.01,"tripHours":[1]}`,
		"trailing data":   `{"n":2,"lambdaPerHour":0.01,"tripHours":[1]} {"again":true}`,
		"unsorted grid":   `{"n":2,"lambdaPerHour":0.01,"tripHours":[2,1]}`,
		"negative lambda": `{"n":2,"lambdaPerHour":-1,"tripHours":[1]}`,
	}
	for name, body := range cases {
		resp, _ := postScenario(t, srv, body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}
}

func TestHTTPBackpressureReturns429(t *testing.T) {
	eval := newScriptedEval()
	srv, _ := newTestServer(t, Config{Workers: 1, QueueSize: 1, Eval: eval.fn})
	defer close(eval.release)

	scenario := func(seed int) string {
		return fmt.Sprintf(`{"n":2,"lambdaPerHour":0.01,"tripHours":[1],"batches":100,"seed":%d}`, seed)
	}
	if resp, _ := postScenario(t, srv, scenario(1)); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit status %d", resp.StatusCode)
	}
	eval.waitStarted(t)
	if resp, _ := postScenario(t, srv, scenario(2)); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("second submit status %d", resp.StatusCode)
	}
	resp, _ := postScenario(t, srv, scenario(3))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
}

func TestHTTPCancelAndResultStateMapping(t *testing.T) {
	eval := newScriptedEval()
	srv, _ := newTestServer(t, Config{Workers: 1, Eval: eval.fn})
	defer close(eval.release)

	_, ack := postScenario(t, srv, tinyScenarioJSON)
	eval.waitStarted(t)

	// Result before completion: 202 with the job view.
	if resp := getJSON(t, srv.URL+ack.ResultURL, nil); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("pending result status %d", resp.StatusCode)
	}

	req, _ := http.NewRequest(http.MethodDelete, srv.URL+ack.StatusURL, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var view JobView
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel status %d", resp.StatusCode)
	}

	deadline := time.Now().Add(30 * time.Second)
	for {
		getJSON(t, srv.URL+ack.StatusURL, &view)
		if view.Status.Terminal() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("cancel never settled: %+v", view)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if view.Status != StatusCancelled {
		t.Fatalf("view %+v", view)
	}
	if resp := getJSON(t, srv.URL+ack.ResultURL, nil); resp.StatusCode != http.StatusGone {
		t.Fatalf("cancelled result status %d, want 410", resp.StatusCode)
	}
}

func TestHTTPUnknownJobIs404(t *testing.T) {
	srv, _ := newTestServer(t, Config{Workers: 1})
	for _, url := range []string{"/v1/jobs/job-404", "/v1/results/job-404"} {
		if resp := getJSON(t, srv.URL+url, nil); resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s: status %d, want 404", url, resp.StatusCode)
		}
	}
}

func TestHTTPHealthz(t *testing.T) {
	srv, _ := newTestServer(t, Config{Workers: 1})
	var health struct {
		Status string `json:"status"`
	}
	if resp := getJSON(t, srv.URL+"/healthz", &health); resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if health.Status != "ok" {
		t.Fatalf("health %+v", health)
	}
}

func TestHTTPGracefulShutdownDrains(t *testing.T) {
	eval := newScriptedEval()
	srv, m := newTestServer(t, Config{Workers: 1, Eval: eval.fn})

	_, ack := postScenario(t, srv, tinyScenarioJSON)
	eval.waitStarted(t)

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		shutdownDone <- m.Shutdown(ctx)
	}()

	// Shutdown must block on the in-flight job until it completes.
	select {
	case err := <-shutdownDone:
		t.Fatalf("shutdown returned before drain: %v", err)
	case <-time.After(100 * time.Millisecond):
	}
	close(eval.release)
	if err := <-shutdownDone; err != nil {
		t.Fatal(err)
	}

	view, err := m.Job(ack.ID)
	if err != nil {
		t.Fatal(err)
	}
	if view.Status != StatusDone {
		t.Fatalf("drained job %+v", view)
	}
	// New submissions are refused while the pool is stopped.
	resp, _ := postScenario(t, srv, tinyScenarioJSON)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-shutdown status %d, want 503", resp.StatusCode)
	}
}

func TestHTTPBodyTooLargeRejected(t *testing.T) {
	srv, _ := newTestServer(t, Config{Workers: 1})
	big := bytes.Repeat([]byte(" "), maxScenarioBytes+2)
	copy(big, []byte(`{"n":2`))
	resp, err := http.Post(srv.URL+"/v1/evaluate", "application/json", bytes.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
}
