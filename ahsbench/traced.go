package main

import (
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"strings"
	"time"

	"ahs/internal/config"
	"ahs/internal/obs"
	"ahs/internal/resultstore"
	"ahs/internal/service"
	"ahs/internal/sweep"
	"ahs/internal/telemetry"
)

// tracedStack is the serving stack of cmd/ahs-serve built in-process from
// the same constructors and defaults, with the benchmark's span wrappers
// around the HTTP handler, the evaluation function and the result store.
type tracedStack struct {
	base  string
	setup time.Duration
	srv   *http.Server
	serve chan error
	mgr   *service.Manager
	eng   *sweep.Engine
	store *resultstore.Store
}

// startTraced builds the stack on storeDir ("" for no store) and serves it
// on a free loopback port.
func startTraced(rec *recorder, storeDir string) (*tracedStack, error) {
	t0 := time.Now()
	logger, err := obs.NewLogger(io.Discard, "text")
	if err != nil {
		return nil, err
	}
	reg := telemetry.NewRegistry()
	telemetry.RegisterRuntime(reg)
	tracer := obs.NewTracer(obs.Config{
		SampleEvery: 1,
		MaxTraces:   256,
		MaxSpans:    512,
		Telemetry:   reg,
		Logger:      logger,
	})
	ts := &tracedStack{}
	cfg := service.Config{
		Workers:    serveWorkers,
		QueueSize:  64,
		CacheSize:  serveLRU,
		JobTimeout: 30 * time.Minute,
		Telemetry:  reg,
		Tracer:     tracer,
		Logf:       obs.Logf(context.Background(), logger),
		Eval:       tracedEval(rec, service.EvaluateInto(reg)),
	}
	if storeDir != "" {
		end := rec.begin("resultstore.open", "")
		ts.store, err = resultstore.Open(resultstore.Config{Dir: storeDir, Telemetry: reg, Logf: cfg.Logf})
		end()
		if err != nil {
			return nil, err
		}
		cfg.Store = tracedStore{rec: rec, st: ts.store}
	}
	ts.mgr = service.NewManager(cfg)
	ts.eng = sweep.NewEngine(sweep.Config{
		Manager:     ts.mgr,
		Telemetry:   reg,
		MaxInFlight: serveInFlight,
		MaxPoints:   maxSweepSize,
		Tracer:      tracer,
	})
	mux := http.NewServeMux()
	mux.Handle("/", service.NewHandler(ts.mgr))
	sweeps := sweep.NewHandler(ts.eng)
	mux.Handle("/v1/sweeps", sweeps)
	mux.Handle("/v1/sweeps/", sweeps)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		ts.close()
		return nil, err
	}
	ts.srv = &http.Server{
		Handler:      tracedHandler(rec, mux),
		ReadTimeout:  10 * time.Second,
		WriteTimeout: 30 * time.Second,
	}
	ts.serve = make(chan error, 1)
	go func() { ts.serve <- ts.srv.Serve(ln) }()
	ts.base = "http://" + ln.Addr().String()
	ts.setup = time.Since(t0)
	return ts, nil
}

// close drains the stack in cmd/ahs-serve's shutdown order and reports a
// drain that was not clean.
func (ts *tracedStack) close() error {
	var errs []error
	if ts.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		errs = append(errs, ts.srv.Shutdown(ctx))
		cancel()
		if err := <-ts.serve; !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
	}
	if ts.mgr != nil {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		errs = append(errs, ts.mgr.Shutdown(ctx))
		cancel()
	}
	if ts.eng != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		errs = append(errs, ts.eng.Close(ctx))
		cancel()
	}
	if ts.store != nil {
		errs = append(errs, ts.store.Close())
	}
	return errors.Join(errs...)
}

// tracedEval wraps the production evaluation in a "service.eval" span keyed
// by the scenario hash (computed before the span opens).
func tracedEval(rec *recorder, eval service.EvalFunc) service.EvalFunc {
	return func(ctx context.Context, sc *config.Scenario, workers int, progress func(done, max uint64)) (*service.Result, error) {
		key, _ := sc.Hash()
		defer rec.begin("service.eval", key)()
		return eval(ctx, sc, workers, progress)
	}
}

// tracedStore wraps the result store's Get and Put in spans keyed by the
// scenario hash, which is the store key.
type tracedStore struct {
	rec *recorder
	st  *resultstore.Store
}

func (t tracedStore) Get(key string, value any) (bool, error) {
	defer t.rec.begin("resultstore.get", key)()
	return t.st.Get(key, value)
}

func (t tracedStore) Put(key string, value any) error {
	defer t.rec.begin("resultstore.put", key)()
	return t.st.Put(key, value)
}

// tracedHandler records one span per request, named after its route and
// keyed by the scenario hash the client tagged it with.
func tracedHandler(rec *recorder, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer rec.begin(routeSpan(r), r.Header.Get(keyHeader))()
		h.ServeHTTP(w, r)
	})
}

func routeSpan(r *http.Request) string {
	p := r.URL.Path
	switch {
	case r.Method == http.MethodPost && p == "/v1/evaluate":
		return "http.evaluate"
	case r.Method == http.MethodGet && strings.HasPrefix(p, "/v1/results/"):
		return "http.result"
	case r.Method == http.MethodPost && p == "/v1/sweeps":
		return "http.sweep_submit"
	case strings.HasSuffix(p, "/stream"):
		return "http.stream"
	}
	return "http.other"
}
