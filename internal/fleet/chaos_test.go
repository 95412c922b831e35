package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ahs/internal/faultinject"
	"ahs/internal/resultstore"
	"ahs/internal/telemetry"
)

// The fleet chaos suite: a two-member in-process fleet works through one
// batch of scenarios while a seeded schedule kills the writer at a named
// fault site — mid-claim, mid-put, or mid-compaction. The "kill" is a
// panic thrown from the armed tripwire at the exact faulted instruction,
// unwound to the worker loop, followed by Abandon on every handle: file
// descriptors close without sync and the flock drops, which is what
// kill -9 leaves behind. The survivor must promote, adopt, and finish
// the batch; the assertions are the fleet's two safety claims:
//
//  1. exactly-once among the living: no scenario is evaluated twice by
//     live members — any double evaluation involves the killed member,
//     whose unfinished work is the one legitimate re-evaluation.
//  2. bit-identity: every stored curve matches a from-scratch reference
//     evaluation %b-exactly, whichever member computed and however it
//     reached the segment (direct write, forward, post-promotion flush).
//
// Schedules are replayable: the kill point is drawn from the seed logged
// on failure.
type chaosMember struct {
	name  string
	store *resultstore.Store
	node  *Node
	srv   *httptest.Server
	trip  *faultinject.Tripwire
	dead  atomic.Bool
	mu    sync.Mutex
	evals map[string]int
	queue chan json.RawMessage
}

// killPanic unwinds from a fault site to the worker loop.
type killPanic struct{ site string }

type chaosScenario struct {
	Name string  `json:"name"`
	X    float64 `json:"x"`
}

// evalScenario is the deterministic stand-in evaluation: the reference
// run and every member compute bit-identical docs from the same input.
func evalScenario(sc chaosScenario) []byte {
	doc := map[string]any{
		"name":     sc.Name,
		"unsafety": []float64{sc.X / 3.0 * 1e-13, sc.X * sc.X / 7.0},
	}
	b, _ := json.Marshal(doc)
	return b
}

func newChaosMember(t *testing.T, dir, name string, follower bool) *chaosMember {
	t.Helper()
	m := &chaosMember{
		name:  name,
		trip:  faultinject.NewTripwire(),
		evals: make(map[string]int),
		queue: make(chan json.RawMessage, 256),
	}
	store, err := resultstore.Open(resultstore.Config{
		Dir:      dir,
		Owner:    name,
		ReadOnly: follower,
		Logf:     t.Logf,
		Hook:     m.trip.Hit,
	})
	if err != nil {
		t.Fatalf("open store (%s): %v", name, err)
	}
	m.store = store
	m.srv = httptest.NewServer(nil)
	node, err := New(Config{
		Dir:        dir,
		Owner:      name,
		URL:        m.srv.URL,
		Store:      store,
		Heartbeat:  20 * time.Millisecond,
		ClaimTTL:   80 * time.Millisecond,
		Telemetry:  telemetry.NewRegistry(),
		Logf:       t.Logf,
		ClaimsHook: m.trip.Hit,
		Submit:     func(sc json.RawMessage) { m.queue <- sc },
	})
	if err != nil {
		t.Fatalf("fleet.New(%s): %v", name, err)
	}
	m.node = node
	// The kill can land while this member is ingesting a peer's forward
	// (store.Put inside the HTTP handler). net/http recovers handler
	// panics, so translate a killPanic here too or the SIGKILL would be
	// silently absorbed; the forwarding peer sees the dropped connection
	// and parks its put for retry, exactly as with a real dead writer.
	inner := node.Handler()
	m.srv.Config.Handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if rec := recover(); rec != nil {
				if kp, ok := rec.(killPanic); ok {
					t.Logf("chaos: %s killed at %s (during ingest)", m.name, kp.site)
					go m.kill()
					panic(http.ErrAbortHandler)
				}
				panic(rec)
			}
		}()
		if m.dead.Load() {
			panic(http.ErrAbortHandler)
		}
		inner.ServeHTTP(w, r)
	})
	t.Cleanup(func() {
		m.srv.Close()
		node.Close()
		store.Close()
	})
	return m
}

// kill models the SIGKILL landing: no syncs, no releases, locks drop.
func (m *chaosMember) kill() {
	if m.dead.Swap(true) {
		return
	}
	m.node.claims.Abandon()
	m.store.Abandon()
	m.srv.Close()
}

// work processes one scenario the way the service's submit path does:
// dedup against the store, claim, re-check the store under the claim (a
// peer may have persisted and released in between), evaluate, persist. A
// killPanic from an armed fault site turns into kill().
func (m *chaosMember) work(t *testing.T, raw json.RawMessage) {
	defer func() {
		if r := recover(); r != nil {
			if kp, ok := r.(killPanic); ok {
				t.Logf("chaos: %s killed at %s", m.name, kp.site)
				m.kill()
				return
			}
			panic(r)
		}
	}()
	var sc chaosScenario
	if err := json.Unmarshal(raw, &sc); err != nil {
		t.Errorf("bad scenario %q: %v", raw, err)
		return
	}
	if m.store.Has(sc.Name) {
		return
	}
	acquired, _, err := m.node.TryClaim(sc.Name, raw)
	if err != nil || !acquired {
		return
	}
	if m.store.Has(sc.Name) {
		m.node.Release(sc.Name)
		return
	}
	m.mu.Lock()
	m.evals[sc.Name]++
	m.mu.Unlock()
	if err := m.node.PutResult(sc.Name, evalScenario(sc)); err != nil {
		t.Logf("chaos: %s PutResult(%s): %v", m.name, sc.Name, err)
	}
}

// run drains the member's queue until ctx ends, ticking the node between
// batches (claim renewal, failover detection, pending-put flushes).
func (m *chaosMember) run(ctx context.Context, t *testing.T, wg *sync.WaitGroup) {
	defer wg.Done()
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case raw := <-m.queue:
			if !m.dead.Load() {
				m.work(t, raw)
			}
		case <-tick.C:
			if !m.dead.Load() {
				m.node.Tick()
			}
		}
	}
}

func TestFleetChaosSchedules(t *testing.T) {
	const numScenarios = 24
	const seed = 0xF1EE7

	schedules := []struct {
		name string
		site string // "" = control, no kill
	}{
		{"control-no-kill", ""},
		{"kill-writer-mid-claim", "claims.post-append"},
		{"kill-writer-mid-put", "put.pre-sync"},
		{"kill-writer-mid-compaction", "compact.pre-rename"},
	}
	for _, sched := range schedules {
		t.Run(sched.name, func(t *testing.T) {
			dir := t.TempDir()
			writer := newChaosMember(t, dir, "chaos-w", false)
			survivor := newChaosMember(t, dir, "chaos-f", true)

			if sched.site != "" {
				at := faultinject.PickHit(seed, sched.name, 8)
				t.Logf("chaos: seed %#x arms %s at hit %d", seed, sched.site, at)
				writer.trip.Arm(sched.site, at, func() { panic(killPanic{site: sched.site}) })
			}

			// Reference evaluations, computed before the fleet runs.
			want := make(map[string]string, numScenarios)
			scenarios := make([]json.RawMessage, 0, numScenarios)
			for i := 0; i < numScenarios; i++ {
				sc := chaosScenario{Name: fmt.Sprintf("sc-%02d", i), X: float64(i) + 0.5}
				raw, _ := json.Marshal(sc)
				scenarios = append(scenarios, raw)
				want[sc.Name] = string(evalScenario(sc))
			}

			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var wg sync.WaitGroup
			wg.Add(2)
			go writer.run(ctx, t, &wg)
			go survivor.run(ctx, t, &wg)

			// Clients submit through both instances, interleaved — the
			// claims table is the only thing preventing double work. Which
			// instance hears of a scenario first alternates: the Go
			// scheduler tends to run the most recently woken goroutine
			// first, so a fixed order would hand nearly every claim race
			// to one member and starve the other's fault sites. The
			// writer periodically compacts, giving the mid-compaction
			// schedule its fault site.
			for i, raw := range scenarios {
				first, second := writer, survivor
				if i%2 == 1 {
					first, second = survivor, writer
				}
				first.queue <- raw
				second.queue <- raw
				if i%5 == 4 && !writer.dead.Load() {
					func() {
						defer func() {
							if r := recover(); r != nil {
								if kp, ok := r.(killPanic); ok {
									t.Logf("chaos: chaos-w killed at %s (during compaction)", kp.site)
									writer.kill()
									return
								}
								panic(r)
							}
						}()
						writer.store.Compact()
					}()
				}
				time.Sleep(2 * time.Millisecond)
			}

			// Wait for the fleet to finish the batch: every scenario
			// persisted (read through a fresh follower handle).
			check, err := resultstore.Open(resultstore.Config{
				Dir: dir, Owner: "chaos-check", ReadOnly: true, Logf: t.Logf,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer check.Close()
			deadline := time.Now().Add(15 * time.Second)
			for {
				done := 0
				for name := range want {
					if check.Has(name) {
						done++
					}
				}
				if done == numScenarios {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("seed %#x: fleet finished only %d/%d scenarios", seed, done, numScenarios)
				}
				time.Sleep(20 * time.Millisecond)
			}
			cancel()
			wg.Wait()

			// Bit-identity: every stored curve equals the reference, %b
			// floats included (JSON round-trips float64 bits exactly).
			for name, wantJSON := range want {
				var got json.RawMessage
				ok, err := check.Get(name, &got)
				if err != nil || !ok {
					t.Fatalf("Get(%s) = %v, %v", name, ok, err)
				}
				var wantDoc, gotDoc struct {
					Unsafety []float64 `json:"unsafety"`
				}
				json.Unmarshal([]byte(wantJSON), &wantDoc)
				json.Unmarshal(got, &gotDoc)
				if len(gotDoc.Unsafety) != len(wantDoc.Unsafety) {
					t.Fatalf("%s: stored %d values, want %d", name, len(gotDoc.Unsafety), len(wantDoc.Unsafety))
				}
				for i := range wantDoc.Unsafety {
					if fmt.Sprintf("%b", gotDoc.Unsafety[i]) != fmt.Sprintf("%b", wantDoc.Unsafety[i]) {
						t.Errorf("seed %#x: %s[%d] = %b, want %b", seed, name, i, gotDoc.Unsafety[i], wantDoc.Unsafety[i])
					}
				}
			}

			// Exactly-once accounting.
			for _, m := range []*chaosMember{writer, survivor} {
				m.mu.Lock()
				for name, count := range m.evals {
					if count > 1 {
						t.Errorf("seed %#x: %s evaluated %s %d times", seed, m.name, name, count)
					}
				}
				m.mu.Unlock()
			}
			writer.mu.Lock()
			survivor.mu.Lock()
			total := 0
			for name := range want {
				n := writer.evals[name] + survivor.evals[name]
				total += n
				if n == 0 {
					t.Errorf("%s persisted without any recorded evaluation", name)
				}
				// A scenario evaluated twice is legitimate only when the
				// killed member did one of the two (its in-flight work).
				if n > 1 && sched.site == "" {
					t.Errorf("control schedule double-evaluated %s", name)
				}
				if n > 1 && writer.evals[name] == 0 {
					t.Errorf("seed %#x: %s double-evaluated without the killed member involved", seed, name)
				}
			}
			writer.mu.Unlock()
			survivor.mu.Unlock()
			if sched.site == "" && total != numScenarios {
				t.Errorf("control schedule ran %d evaluations for %d scenarios", total, numScenarios)
			}

			if sched.site != "" {
				if !writer.dead.Load() {
					t.Fatalf("seed %#x: schedule %s never killed the writer (site hits: %d)",
						seed, sched.name, writer.trip.Hits(sched.site))
				}
				if got := survivor.node.Role(); got != string(RoleWriter) {
					t.Errorf("survivor role = %s, want writer", got)
				}
				if got := survivor.node.metrics.promotions.Value(); got != 1 {
					t.Errorf("promotions = %d, want 1", got)
				}
				if got := survivor.node.Epoch(); got < 2 {
					t.Errorf("post-failover epoch = %d, want ≥ 2", got)
				}
			}
		})
	}
}
