package service

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"

	"ahs/internal/obs"
	"ahs/internal/telemetry"
)

// TestMetricsRegistryFamilies checks the same counters surface as
// Prometheus families, including the derived ratio gauges.
func TestMetricsRegistryFamilies(t *testing.T) {
	reg := telemetry.NewRegistry()
	m := newMetrics(reg, 4)
	m.CacheHits.Add(3)
	m.CacheMisses.Add(1)
	m.Running.Set(1)

	var b strings.Builder
	if err := reg.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if err := telemetry.ValidateText(strings.NewReader(out)); err != nil {
		t.Fatalf("exposition invalid: %v", err)
	}
	for _, want := range []string{
		"ahs_service_cache_hits_total 3",
		"ahs_service_cache_hit_ratio 0.75",
		"ahs_service_worker_utilization 0.25",
		"ahs_service_queue_depth 0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

// TestConcurrentMetricsScrapes hammers GET /metrics from several
// goroutines while jobs churn the labeled families (job statuses, cache
// hits, trace spans, runtime gauges) and requires every single scrape to
// be well-formed Prometheus 0.0.4 text. Run under -race in CI, this is
// the torn-scrape regression test: a scrape must never observe a family
// mid-mutation.
func TestConcurrentMetricsScrapes(t *testing.T) {
	reg := telemetry.NewRegistry()
	telemetry.RegisterRuntime(reg)
	tracer := obs.NewTracer(obs.Config{Telemetry: reg})
	srv, m := newTestServer(t, Config{
		Workers:   2,
		QueueSize: 64,
		Telemetry: reg,
		Tracer:    tracer,
	})

	stop := make(chan struct{})
	var wg sync.WaitGroup
	scrapeErr := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get(srv.URL + "/metrics")
				if err != nil {
					scrapeErr <- err
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					scrapeErr <- err
					return
				}
				if resp.StatusCode != http.StatusOK {
					scrapeErr <- fmt.Errorf("scrape status %d", resp.StatusCode)
					return
				}
				if err := telemetry.ValidateText(bytes.NewReader(body)); err != nil {
					scrapeErr <- fmt.Errorf("invalid exposition: %w\n%s", err, body)
					return
				}
			}
		}()
	}

	// Churn the labeled families under the scrapers: distinct scenarios
	// (fresh jobs and statuses), one repeated scenario (cache hits), and
	// traced submissions (ahs_trace_* counters).
	for seed := uint64(1); seed <= 20; seed++ {
		sc := testScenario(seed % 10) // repeats hit the dedup table and cache
		ctx, span := tracer.Start(context.Background(), "scrape-test")
		v, err := m.SubmitCtx(ctx, sc)
		span.End()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Wait(context.Background(), v.ID); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-scrapeErr:
		t.Fatal(err)
	default:
	}
}
