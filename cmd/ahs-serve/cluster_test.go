package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"strings"
	"testing"
	"time"

	"ahs/internal/cluster"
	"ahs/internal/config"
	"ahs/internal/service"
)

const clusterScenarioJSON = `{
	"name": "cmd-cluster",
	"n": 2,
	"lambdaPerHour": 0.01,
	"tripHours": [0.5, 1],
	"batches": 4000,
	"seed": 9
}`

// TestServeClusterMode boots the real server in -cluster mode, joins one
// in-process worker, and checks that an evaluation round-trips through the
// distributed backend with the same answer the local backend gives.
func TestServeClusterMode(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	ready := make(chan string, 1)
	runErr := make(chan error, 1)
	go func() {
		runErr <- run(ctx, []string{"-addr", "127.0.0.1:0", "-workers", "1", "-cluster"}, ready)
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

	// One worker joins through the same public address the API serves on.
	wctx, wcancel := context.WithCancel(context.Background())
	workerDone := make(chan struct{})
	go func() {
		defer close(workerDone)
		w := &cluster.Worker{Coordinator: base, ID: "cmd-w0", SimWorkers: 1, Poll: 10 * time.Millisecond}
		if err := w.Run(wctx); err != nil {
			t.Errorf("worker: %v", err)
		}
	}()
	defer func() {
		wcancel()
		<-workerDone
	}()

	getJSON := func(path string, v any) int {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode
	}

	// healthz reports the cluster backend once the worker registers.
	var health struct {
		Backend service.BackendHealth `json:"backend"`
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if code := getJSON("/healthz", &health); code != http.StatusOK {
			t.Fatalf("healthz: HTTP %d", code)
		}
		if health.Backend.WorkersLive >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("worker never showed up in /healthz: %+v", health.Backend)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if health.Backend.Mode != "cluster" || !health.Backend.Ready {
		t.Fatalf("backend health %+v", health.Backend)
	}

	// Evaluate through the cluster and compare with the local pipeline.
	resp, err := http.Post(base+"/v1/evaluate", "application/json", strings.NewReader(clusterScenarioJSON))
	if err != nil {
		t.Fatal(err)
	}
	var ack struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if ack.ID == "" {
		t.Fatalf("no job id in response (HTTP %d)", resp.StatusCode)
	}

	var res service.Result
	deadline = time.Now().Add(60 * time.Second)
	for {
		code := getJSON("/v1/results/"+ack.ID, &res)
		if code == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never finished (last HTTP %d)", ack.ID, code)
		}
		time.Sleep(20 * time.Millisecond)
	}

	sc, err := config.Load(strings.NewReader(clusterScenarioJSON))
	if err != nil {
		t.Fatal(err)
	}
	want, err := service.Evaluate(context.Background(), sc, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Batches != want.Batches {
		t.Fatalf("Batches = %d, want %d", res.Batches, want.Batches)
	}
	for i := range want.Unsafety {
		if res.Unsafety[i] != want.Unsafety[i] {
			t.Fatalf("Unsafety[%d] = %b, want %b (not bit-identical)", i, res.Unsafety[i], want.Unsafety[i])
		}
	}

	// The shared registry exposes the cluster families on /metrics.
	mresp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	families, err := io.ReadAll(mresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(families), "ahs_cluster_chunks_completed_total") {
		t.Fatal("cluster metrics missing from /metrics")
	}
}

// TestServeJournalMode boots the server with -cluster -journal-dir,
// evaluates through the journaled coordinator, and checks that the journal
// materializes on disk, its metric families are exported, and shutdown
// drains cleanly (the drain syncs and closes the journal).
func TestServeJournalMode(t *testing.T) {
	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	ready := make(chan string, 1)
	runErr := make(chan error, 1)
	go func() {
		runErr <- run(ctx, []string{"-addr", "127.0.0.1:0", "-workers", "1", "-cluster", "-journal-dir", dir}, ready)
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

	// No workers join: the journaled coordinator must still complete the
	// job by simulating its chunks itself, journaling each one.
	resp, err := http.Post(base+"/v1/evaluate", "application/json", strings.NewReader(clusterScenarioJSON))
	if err != nil {
		t.Fatal(err)
	}
	var ack struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if ack.ID == "" {
		t.Fatalf("no job id in response (HTTP %d)", resp.StatusCode)
	}
	var res service.Result
	deadline := time.Now().Add(60 * time.Second)
	for {
		r, err := http.Get(base + "/v1/results/" + ack.ID)
		if err != nil {
			t.Fatal(err)
		}
		code := r.StatusCode
		if code == http.StatusOK {
			if err := json.NewDecoder(r.Body).Decode(&res); err != nil {
				t.Fatal(err)
			}
			r.Body.Close()
			break
		}
		r.Body.Close()
		if time.Now().After(deadline) {
			t.Fatalf("job %s never finished (last HTTP %d)", ack.ID, code)
		}
		time.Sleep(20 * time.Millisecond)
	}

	sc, err := config.Load(strings.NewReader(clusterScenarioJSON))
	if err != nil {
		t.Fatal(err)
	}
	want, err := service.Evaluate(context.Background(), sc, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Unsafety {
		if res.Unsafety[i] != want.Unsafety[i] {
			t.Fatalf("Unsafety[%d] = %b, want %b (not bit-identical)", i, res.Unsafety[i], want.Unsafety[i])
		}
	}

	// The journal wrote real frames and its metrics are exported.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Fatal("journal directory is empty after a journaled evaluation")
	}
	mresp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	families, err := io.ReadAll(mresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"ahs_journal_records_total", "ahs_journal_fsyncs_total", "ahs_journal_live_jobs"} {
		if !strings.Contains(string(families), name) {
			t.Errorf("journal metric %s missing from /metrics", name)
		}
	}
}
