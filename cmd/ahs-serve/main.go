// Command ahs-serve runs the AHS unsafety-evaluation service: an HTTP
// JSON API over internal/service's job manager, with request
// deduplication, an LRU result cache, backpressure and graceful shutdown.
//
// Start it and submit the example scenario:
//
//	ahs-serve -addr :8080 &
//	curl -d @docs/scenario-example.json localhost:8080/v1/evaluate
//	curl localhost:8080/v1/jobs/job-1
//	curl localhost:8080/v1/results/job-1
//
// With -cluster the server also mounts the coordinator API under
// /cluster/v1/ and fans each job out to registered ahs-worker processes,
// falling back to local simulation when none are registered; results are
// bit-identical either way. See docs/api.md for the endpoint reference and
// metrics names, and docs/cluster.md for the cluster protocol.
//
// Every request is traced: one submit yields a single distributed trace
// covering dedup, sweep expansion, chunk leases, worker execution, fault
// injections and merge, browsable at GET /debug/traces and exportable as
// Chrome trace JSON from GET /v1/jobs/{id}/trace?format=chrome (see
// docs/observability.md). Logs go through log/slog; the per-request access
// line carries trace_id/span_id, and -log-format json emits one object per
// line for log shippers.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"ahs/internal/cluster"
	"ahs/internal/config"
	"ahs/internal/fleet"
	"ahs/internal/obs"
	"ahs/internal/resultstore"
	"ahs/internal/segment"
	"ahs/internal/service"
	"ahs/internal/sweep"
	"ahs/internal/telemetry"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], nil); err != nil {
		fmt.Fprintln(os.Stderr, "ahs-serve:", err)
		os.Exit(1)
	}
}

// run parses flags and serves until ctx is cancelled; ready, when non-nil,
// receives the bound address once the listener is up (tests bind :0).
func run(ctx context.Context, args []string, ready chan<- string) error {
	fs := flag.NewFlagSet("ahs-serve", flag.ContinueOnError)
	var (
		addr          = fs.String("addr", ":8080", "listen address")
		workers       = fs.Int("workers", 2, "jobs evaluated concurrently")
		workersPerJob = fs.Int("workers-per-job", 0, "simulation goroutines per job (0 = GOMAXPROCS/workers)")
		queueSize     = fs.Int("queue", 64, "pending-job queue bound; a full queue answers 429")
		cacheSize     = fs.Int("cache", 256, "LRU result-cache entries (negative disables)")
		jobTimeout    = fs.Duration("job-timeout", 30*time.Minute, "per-job evaluation cap (0 = unlimited)")
		drainTimeout  = fs.Duration("drain-timeout", time.Minute, "graceful-shutdown drain budget before in-flight jobs are cancelled")
		readTimeout   = fs.Duration("read-timeout", 10*time.Second, "HTTP read timeout")
		writeTimeout  = fs.Duration("write-timeout", 30*time.Second, "HTTP write timeout")
		debug         = fs.Bool("debug", false, "mount net/http/pprof profiling endpoints under /debug/pprof/")
		clusterMode   = fs.Bool("cluster", false, "fan jobs out to ahs-worker processes via the /cluster/v1/ API instead of simulating in-process (with no live worker the coordinator simulates the chunks itself)")
		leaseTTL      = fs.Duration("lease-ttl", 2*time.Minute, "cluster chunk lease duration before requeue")
		chunkBatches  = fs.Uint64("chunk-batches", 0, "cluster lease granularity in batches, rounded up to whole accumulation rounds (0 = four rounds)")
		journalDir    = fs.String("journal-dir", "", "cluster job-journal directory for crash-safe evaluation (requires -cluster; empty = no journal, jobs are lost on crash)")
		storeDir      = fs.String("store-dir", "", "persistent result-store directory; results survive restarts and are shared by every instance on the same directory (empty = memory-only cache)")
		storeFollower = fs.Bool("store-follower", false, "open -store-dir read-only: serve its results but leave writing to another instance (requires -store-dir)")
		fleetMode     = fs.Bool("fleet", false, "coordinate with peers sharing -store-dir: store-mediated work claims, writer failover and fleet-wide exactly-once evaluation (requires -store-dir and -advertise-url)")
		advertiseURL  = fs.String("advertise-url", "", "this instance's base URL (scheme://host:port) as reachable by fleet peers; work claims and the writer heartbeat carry it (requires -fleet)")
		fleetHB       = fs.Duration("fleet-heartbeat", 500*time.Millisecond, "fleet writer-heartbeat and claim-renewal interval; a writer quiet for four intervals is presumed dead and followers promote")
		fleetClaimTTL = fs.Duration("fleet-claim-ttl", 0, "fleet work-claim expiry before survivors may adopt a dead node's unfinished scenarios (0 = 8x -fleet-heartbeat)")
		defaultTenant = fs.String("default-tenant", "", "tenant attributed to requests without an X-AHS-Tenant header (empty = \"default\")")
		tenantQuota   = fs.Int("tenant-quota", 0, "per-tenant queued-job cap; a tenant at its quota gets 429 while others keep submitting (0 = no per-tenant cap)")
		sweepInFlight = fs.Int("sweep-inflight", 4, "default per-sweep bound on concurrently submitted design points")
		sweepMaxPts   = fs.Int("sweep-max-points", 4096, "reject sweep designs expanding beyond this many points")
		logFormat     = fs.String("log-format", "text", "log output format: text or json (one slog object per line)")
		traceSample   = fs.Int("trace-sample", 1, "record every Nth trace (1 = all, 0 = tracing disabled)")
		traceMaxTr    = fs.Int("trace-max-traces", 256, "finished traces kept in the in-memory ring for GET /debug/traces")
		traceMaxSpans = fs.Int("trace-max-spans", 512, "span cap per trace; spans past it are counted as dropped")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	if *workers < 1 || *queueSize < 1 {
		return fmt.Errorf("workers and queue must be positive (got %d, %d)", *workers, *queueSize)
	}
	logger, err := obs.NewLogger(os.Stderr, *logFormat)
	if err != nil {
		return err
	}
	logf := obs.Logf(context.Background(), logger)

	// One registry for everything this process exports — service, sweep,
	// cluster, tracing and runtime families all come out of GET /metrics.
	registry := telemetry.NewRegistry()
	telemetry.RegisterRuntime(registry)
	var tracer *obs.Tracer
	if *traceSample > 0 {
		tracer = obs.NewTracer(obs.Config{
			SampleEvery: *traceSample,
			MaxTraces:   *traceMaxTr,
			MaxSpans:    *traceMaxSpans,
			Telemetry:   registry,
			Logger:      logger,
		})
	}

	cfg := service.Config{
		Workers:       *workers,
		WorkersPerJob: *workersPerJob,
		QueueSize:     *queueSize,
		CacheSize:     *cacheSize,
		JobTimeout:    *jobTimeout,
		Telemetry:     registry,
		Tracer:        tracer,
		Logf:          logf,
		DefaultTenant: *defaultTenant,
		TenantQuota:   *tenantQuota,
	}
	if *journalDir != "" && !*clusterMode {
		return fmt.Errorf("-journal-dir requires -cluster")
	}
	if *storeFollower && *storeDir == "" {
		return fmt.Errorf("-store-follower requires -store-dir")
	}
	if *fleetMode && *storeDir == "" {
		return fmt.Errorf("-fleet requires -store-dir")
	}
	if *fleetMode && *advertiseURL == "" {
		return fmt.Errorf("-fleet requires -advertise-url")
	}
	if !*fleetMode && *advertiseURL != "" {
		return fmt.Errorf("-advertise-url requires -fleet")
	}
	fleetOwner := fmt.Sprintf("serve-%d", os.Getpid())
	var store *resultstore.Store
	if *storeDir != "" {
		storeCfg := resultstore.Config{
			Dir:       *storeDir,
			ReadOnly:  *storeFollower,
			Telemetry: registry,
			Logf:      logf,
		}
		if *fleetMode {
			storeCfg.Owner = fleetOwner
		}
		store, err = resultstore.Open(storeCfg)
		if *fleetMode && !*storeFollower && errors.Is(err, segment.ErrLocked) {
			// A peer already holds the writer flock: join as a follower and
			// let failover promote this instance if the writer dies.
			var held *segment.LockHeldError
			if errors.As(err, &held) {
				logger.Info("ahs-serve: store writer lock held, joining fleet as follower",
					slog.String("holder", held.HolderOwner),
					slog.Int("holderPid", held.HolderPID))
			}
			storeCfg.ReadOnly = true
			store, err = resultstore.Open(storeCfg)
		}
		if err != nil {
			return err
		}
		defer store.Close()
		cfg.Store = store
		st := store.Stats()
		logger.Info("ahs-serve: result store open",
			slog.String("dir", st.Dir),
			slog.Bool("follower", st.ReadOnly),
			slog.Int("entries", st.Entries),
			slog.Int64("segmentBytes", st.SegmentBytes))
	}
	var coord *cluster.Coordinator
	var journal *cluster.Journal
	if *clusterMode {
		if *journalDir != "" {
			journal, err = cluster.OpenJournal(cluster.JournalConfig{
				Dir:       *journalDir,
				Telemetry: registry,
				Logf:      logf,
			})
			if err != nil {
				return err
			}
			defer journal.Close()
		}
		clusterCfg := cluster.Config{
			LeaseTTL:     *leaseTTL,
			ChunkBatches: *chunkBatches,
			Journal:      journal,
			Telemetry:    registry,
			Tracer:       tracer,
			Logf:         logf,
		}
		if store != nil {
			// Journal-restored jobs whose curve the store already holds are
			// dropped at startup instead of re-simulated — re-submissions are
			// served from the store before they ever reach the cluster.
			clusterCfg.HasResult = store.Has
		}
		coord = cluster.New(clusterCfg)
		defer coord.Close()
		cfg.Eval = service.ClusterEval(coord)
		cfg.Backend = service.ClusterBackend(coord)
	}
	// The fleet node is created before the manager (the manager's submit
	// path consults it for claims) but its adoption path submits back into
	// the manager; mgr is assigned before the node's Run loop starts, so
	// the closure never observes it nil.
	var mgr *service.Manager
	var fleetNode *fleet.Node
	if *fleetMode {
		fleetNode, err = fleet.New(fleet.Config{
			Dir:       *storeDir,
			Owner:     fleetOwner,
			URL:       *advertiseURL,
			Store:     store,
			Heartbeat: *fleetHB,
			ClaimTTL:  *fleetClaimTTL,
			Telemetry: registry,
			Logf:      logf,
			Submit: func(raw json.RawMessage) {
				var sc config.Scenario
				if err := json.Unmarshal(raw, &sc); err != nil {
					logf("ahs-serve: adopted scenario undecodable: %v", err)
					return
				}
				if _, err := mgr.Submit(&sc); err != nil {
					logf("ahs-serve: adopted scenario submit failed: %v", err)
				}
			},
		})
		if err != nil {
			return err
		}
		defer fleetNode.Close()
		cfg.Fleet = fleetNode
		logger.Info("ahs-serve: fleet member",
			slog.String("owner", fleetOwner),
			slog.String("role", fleetNode.Role()),
			slog.Uint64("epoch", fleetNode.Epoch()),
			slog.String("advertise", *advertiseURL))
	}
	if journal != nil || store != nil {
		// Surface durability in GET /healthz: operators watching a
		// crash-safe deployment can see the journal directory, live-job
		// count, last compaction outcome, the result store's segment
		// state and this node's fleet role without reading logs.
		cfg.ExtraHealth = func() map[string]any {
			extra := make(map[string]any, 3)
			if journal != nil {
				extra["journal"] = journal.Stats()
			}
			if store != nil {
				extra["store"] = store.Stats()
			}
			if fleetNode != nil {
				extra["fleet"] = fleetNode.Health()
			}
			return extra
		}
	}
	mgr = service.NewManager(cfg)
	// The sweep engine fans whole parameter designs out through the same
	// manager, so sweep points share the dedup table, cache and backend
	// (cluster included) with direct /v1/evaluate submissions.
	eng := sweep.NewEngine(sweep.Config{
		Manager:     mgr,
		Telemetry:   mgr.Registry(),
		MaxInFlight: *sweepInFlight,
		MaxPoints:   *sweepMaxPts,
		Tracer:      tracer,
	})
	mux := http.NewServeMux()
	mux.Handle("/", service.NewHandler(mgr))
	sweepHandler := sweep.NewHandler(eng)
	mux.Handle("/v1/sweeps", sweepHandler)
	mux.Handle("/v1/sweeps/", sweepHandler)
	var handler http.Handler = mux
	if coord != nil {
		mux.Handle("/cluster/v1/", coord.Handler())
	}
	if fleetNode != nil {
		mux.Handle("/fleet/v1/", fleetNode.Handler())
	}
	if *debug {
		// Profiling endpoints are opt-in: they expose goroutine dumps and
		// CPU profiles, which production deployments may not want public.
		// GET /metrics is always on (see service.NewHandler).
		mux := http.NewServeMux()
		mux.Handle("/", handler)
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
		handler = mux
	}
	srv := &http.Server{
		Handler:      handler,
		ReadTimeout:  *readTimeout,
		WriteTimeout: *writeTimeout,
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	logger.Info("ahs-serve: listening",
		slog.String("addr", ln.Addr().String()),
		slog.Int("workers", *workers),
		slog.Int("queue", *queueSize),
		slog.Int("cache", *cacheSize),
		slog.Bool("cluster", *clusterMode),
		slog.Bool("tracing", tracer != nil))
	if ready != nil {
		ready <- ln.Addr().String()
	}

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	if fleetNode != nil {
		// Heartbeats, claim renewal, failover detection and pending-put
		// retries; ctx cancellation releases this node's claims on the way
		// out so peers pick unfinished work up immediately.
		go fleetNode.Run(ctx)
	}

	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}

	// Graceful shutdown: stop accepting connections, then drain the job
	// pool; past the drain budget, in-flight estimations are cancelled
	// (they stop within one simulation batch).
	logger.Info("ahs-serve: shutting down, draining jobs", slog.Duration("budget", *drainTimeout))
	httpCtx, cancelHTTP := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancelHTTP()
	if err := srv.Shutdown(httpCtx); err != nil {
		srv.Close()
	}
	if coord != nil {
		// Stop leasing and release in-flight cluster jobs. With a journal
		// those jobs stay durable and resume when the next ahs-serve on the
		// same -journal-dir receives the same scenario again.
		coord.Drain()
	}
	drainCtx, cancelDrain := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancelDrain()
	err = mgr.Shutdown(drainCtx)
	// Reap sweep orchestration after the manager drains: settled jobs have
	// already resolved their points, so Close only stops bookkeeping.
	closeCtx, cancelClose := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancelClose()
	if cerr := eng.Close(closeCtx); cerr != nil {
		logger.Error("ahs-serve: sweep engine close failed", slog.Any("err", cerr))
	}
	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			logger.Warn("ahs-serve: drain budget exceeded, in-flight jobs cancelled")
			return nil
		}
		return err
	}
	logger.Info("ahs-serve: drained cleanly")
	return nil
}
