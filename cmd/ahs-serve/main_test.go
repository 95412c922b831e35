package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"ahs/internal/telemetry"
)

func TestRunRejectsBadFlags(t *testing.T) {
	cases := map[string][]string{
		"unknown flag":  {"-definitely-not-a-flag"},
		"zero workers":  {"-workers", "0"},
		"zero queue":    {"-queue", "0"},
		"stray arg":     {"positional"},
		"unparseable":   {"-workers", "two"},
		"bad duration":  {"-job-timeout", "soon"},
		"bad address":   {"-addr", "definitely:not:an:addr"},
		"taken address": {"-addr", "256.0.0.1:1"},
	}
	for name, args := range cases {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		if err := run(ctx, args, nil); err == nil {
			t.Errorf("%s: expected error for %v", name, args)
		}
		cancel()
	}
}

// TestServeEndToEnd drives the acceptance path against a real server:
// evaluate → poll → result, a second identical submission answered from
// cache (observed on /metrics), and a huge job cancelled mid-estimation.
func TestServeEndToEnd(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	ready := make(chan string, 1)
	runErr := make(chan error, 1)
	go func() {
		runErr <- run(ctx, []string{"-addr", "127.0.0.1:0", "-workers", "1", "-debug"}, ready)
	}()
	var base string
	select {
	case addr := <-ready:
		base = "http://" + addr
	case err := <-runErr:
		t.Fatalf("server exited early: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("server never became ready")
	}
	defer func() {
		cancel()
		select {
		case err := <-runErr:
			if err != nil {
				t.Errorf("run returned %v", err)
			}
		case <-time.After(30 * time.Second):
			t.Error("graceful shutdown hung")
		}
	}()

	post := func(body string) (int, map[string]any) {
		t.Helper()
		resp, err := http.Post(base+"/v1/evaluate", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, out
	}
	get := func(path string, v any) int {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if v != nil {
			if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
				t.Fatalf("%s: %v", path, err)
			}
		}
		return resp.StatusCode
	}

	var health map[string]any
	if code := get("/healthz", &health); code != http.StatusOK || health["status"] != "ok" {
		t.Fatalf("healthz %d %v", code, health)
	}

	// 1. Submit a small scenario and poll it to completion.
	scenario := `{"n":2,"lambdaPerHour":0.01,"tripHours":[0.5,1],"batches":200,"seed":3}`
	code, ack := post(scenario)
	if code != http.StatusAccepted {
		t.Fatalf("evaluate status %d (%v)", code, ack)
	}
	id := ack["id"].(string)
	deadline := time.Now().Add(60 * time.Second)
	for {
		var job map[string]any
		get("/v1/jobs/"+id, &job)
		if s := job["status"]; s == "done" {
			break
		} else if s == "failed" || s == "cancelled" {
			t.Fatalf("job %v", job)
		}
		if time.Now().After(deadline) {
			t.Fatal("job never finished")
		}
		time.Sleep(20 * time.Millisecond)
	}
	var result struct {
		Unsafety []float64 `json:"unsafety"`
		Batches  uint64    `json:"batches"`
	}
	if code := get("/v1/results/"+id, &result); code != http.StatusOK {
		t.Fatalf("result status %d", code)
	}
	if result.Batches != 200 || len(result.Unsafety) != 2 {
		t.Fatalf("result %+v", result)
	}

	// 2. Identical scenario again: answered from cache, visible in the
	// cache counters scraped below.
	code, ack2 := post(scenario)
	if code != http.StatusOK || ack2["cached"] != true {
		t.Fatalf("second submission not a cache hit: %d %v", code, ack2)
	}

	// 3. Scrape /metrics: the exposition must be valid Prometheus text and
	// carry the simulation's per-strategy first-passage histogram, the
	// per-endpoint latency histograms and the migrated service counters.
	mresp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metricsBody, err := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if mresp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status %d", mresp.StatusCode)
	}
	if ct := mresp.Header.Get("Content-Type"); ct != telemetry.ContentType {
		t.Fatalf("metrics content type %q", ct)
	}
	exposition := string(metricsBody)
	if err := telemetry.ValidateText(strings.NewReader(exposition)); err != nil {
		t.Fatalf("metrics exposition invalid: %v\n%s", err, exposition)
	}
	for _, want := range []string{
		`ahs_sim_time_to_ko_hours_bucket{strategy="DD",le="+Inf"}`,
		`ahs_sim_trajectories_total{strategy="DD"} 200`,
		`ahs_http_request_duration_seconds_bucket{endpoint="POST /v1/evaluate",le="+Inf"}`,
		`ahs_http_request_duration_seconds_bucket{endpoint="GET /v1/jobs/{id}",le="+Inf"}`,
		"ahs_service_completed_total 1",
		"ahs_service_cache_hits_total 1",
		"ahs_service_cache_misses_total 1",
	} {
		if !strings.Contains(exposition, want) {
			t.Errorf("metrics exposition missing %q:\n%s", want, exposition)
		}
	}

	// 4. -debug mounts the pprof endpoints.
	if code := get("/debug/pprof/cmdline", nil); code != http.StatusOK {
		t.Fatalf("pprof cmdline status %d, want 200 under -debug", code)
	}

	// 5. A job far too big to finish is cancelled mid-estimation.
	big := `{"n":6,"lambdaPerHour":1e-5,"tripHours":[5,10],"batches":50000000,"seed":4}`
	if code, ack = post(big); code != http.StatusAccepted {
		t.Fatalf("big evaluate status %d", code)
	}
	bigID := ack["id"].(string)
	req, _ := http.NewRequest(http.MethodDelete, base+"/v1/jobs/"+bigID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel status %d", resp.StatusCode)
	}
	cancelled := time.Now()
	for {
		var job map[string]any
		get("/v1/jobs/"+bigID, &job)
		if job["status"] == "cancelled" {
			break
		}
		if time.Since(cancelled) > 30*time.Second {
			t.Fatalf("cancellation did not stop the estimation: %v", job)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if code := get("/v1/results/"+bigID, nil); code != http.StatusGone {
		t.Fatalf("cancelled result status %d, want 410", code)
	}
}

func TestRunStopsCleanlyWhenIdle(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	ready := make(chan string, 1)
	runErr := make(chan error, 1)
	go func() {
		runErr <- run(ctx, []string{"-addr", "127.0.0.1:0"}, ready)
	}()
	select {
	case <-ready:
	case <-time.After(10 * time.Second):
		t.Fatal("server never became ready")
	}
	cancel()
	select {
	case err := <-runErr:
		if err != nil {
			t.Fatalf("run returned %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("idle shutdown hung")
	}
}
