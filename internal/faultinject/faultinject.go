// Package faultinject provides a deterministic, seedable fault-injection
// harness for exercising distributed robustness claims.
//
// The paper this repository reproduces is a study of how a system degrades
// under component failures; faultinject turns the same discipline on the
// evaluation stack itself. A Plan draws fault decisions — drops, delays,
// duplicated deliveries, synthesized 5xx responses, connection resets —
// from per-site internal/rng streams derived from one seed, so a failing
// chaos run is replayable from its logged seed alone. Faults are injected
// at named sites by wrapping http.RoundTripper (client side) or
// http.Handler (server side); Pauser adds a process-level pause/resume
// hook, and kill/restart of in-process workers composes naturally with
// context cancellation.
//
// Determinism contract: for a fixed seed and site the sequence of
// decisions at that site is fixed. Concurrency still interleaves *which*
// request draws which decision — the harness's assertions must therefore
// be interleaving-independent (exactly the property the cluster's
// bit-identical merge provides).
package faultinject

import (
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"ahs/internal/obs"
	"ahs/internal/rng"
	"ahs/internal/telemetry"
)

// Kind names an injected fault, used in logs and the
// ahs_fault_injected_total metric.
type Kind string

// The fault kinds a Plan can inject.
const (
	// KindDropRequest fails the call before it reaches the server: the
	// caller sees a transport error, the server sees nothing.
	KindDropRequest Kind = "drop-request"
	// KindDropResponse delivers the request but discards the response:
	// the server acted, the caller sees a transport error —
	// indistinguishable from KindDropRequest on the client, which is
	// precisely what makes it vicious (it forces idempotent retries).
	KindDropResponse Kind = "drop-response"
	// KindDelay stalls the call for a bounded, seeded duration.
	KindDelay Kind = "delay"
	// KindDuplicate delivers the request twice back-to-back, returning
	// the second response — a retransmission with both copies arriving.
	KindDuplicate Kind = "duplicate"
	// KindServerError synthesizes a 503 without delivering the request.
	KindServerError Kind = "server-error"
	// KindReset fails the call with a connection-reset-flavoured error.
	KindReset Kind = "reset"
)

// Rates sets per-call injection probabilities for one site. Probabilities
// are evaluated as disjoint slices of one uniform draw, so their sum must
// stay ≤ 1; the remainder is the pass-through probability.
type Rates struct {
	DropRequest  float64
	DropResponse float64
	Delay        float64
	Duplicate    float64
	ServerError  float64
	Reset        float64
	// MaxDelay bounds KindDelay stalls (default 50ms).
	MaxDelay time.Duration
}

func (r Rates) total() float64 {
	return r.DropRequest + r.DropResponse + r.Delay + r.Duplicate + r.ServerError + r.Reset
}

// Config configures a Plan.
type Config struct {
	// Seed roots every per-site decision stream. Same seed, same plan.
	Seed uint64
	// Default applies to any site without an explicit entry in Sites.
	Default Rates
	// Sites overrides rates per site name (for Transport, the request's
	// URL path).
	Sites map[string]Rates
	// Telemetry, when non-nil, receives ahs_fault_injected_total.
	Telemetry *telemetry.Registry
	// Logf, when non-nil, receives one line per injected fault.
	Logf func(format string, args ...any)
}

// Plan is a deterministic fault schedule. Decisions at a given site form a
// fixed sequence derived from (seed, site); all methods are safe for
// concurrent use.
type Plan struct {
	cfg      Config
	injected *telemetry.CounterVec

	mu    sync.Mutex
	sites map[string]*siteState
	count map[string]map[Kind]uint64
}

type siteState struct {
	rates  Rates
	stream *rng.Stream
}

// decision is one resolved fault draw.
type decision struct {
	kind  Kind // "" means pass through untouched
	delay time.Duration
}

// NewPlan builds a plan from cfg.
func NewPlan(cfg Config) *Plan {
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	if cfg.Telemetry == nil {
		cfg.Telemetry = telemetry.NewRegistry()
	}
	return &Plan{
		cfg: cfg,
		injected: cfg.Telemetry.CounterVec(telemetry.Opts{
			Name: "ahs_fault_injected_total",
			Help: "Faults injected by the chaos plan, by site and kind.",
		}, "site", "kind"),
		sites: make(map[string]*siteState),
		count: make(map[string]map[Kind]uint64),
	}
}

// Seed returns the plan's root seed, for failure logs.
func (p *Plan) Seed() uint64 { return p.cfg.Seed }

// site returns (creating on first use) the decision state for a site. The
// stream seed mixes the plan seed with an FNV hash of the site name, so
// sites are mutually independent but individually reproducible.
func (p *Plan) site(name string) *siteState {
	if s, ok := p.sites[name]; ok {
		return s
	}
	rates, ok := p.cfg.Sites[name]
	if !ok {
		rates = p.cfg.Default
	}
	if rates.MaxDelay <= 0 {
		rates.MaxDelay = 50 * time.Millisecond
	}
	h := fnv.New64a()
	h.Write([]byte(name))
	s := &siteState{rates: rates, stream: rng.NewSource(p.cfg.Seed).Stream(h.Sum64())}
	p.sites[name] = s
	return s
}

// Decide draws the next fault decision for a site. Exposed so harnesses
// can drive non-HTTP fault points (e.g. scheduled process kills) from the
// same replayable plan.
func (p *Plan) Decide(siteName string) (Kind, time.Duration) {
	d := p.decide(siteName)
	return d.kind, d.delay
}

func (p *Plan) decide(siteName string) decision {
	p.mu.Lock()
	s := p.site(siteName)
	u := s.stream.Float64()
	// Every draw consumes exactly two variates (decision + delay), so
	// the sequence position stays in lockstep however the draw lands.
	du := s.stream.Float64()
	p.mu.Unlock()

	r := s.rates
	delay := time.Duration(du * float64(r.MaxDelay))
	var kind Kind
	switch {
	case u < r.DropRequest:
		kind = KindDropRequest
	case u < r.DropRequest+r.DropResponse:
		kind = KindDropResponse
	case u < r.DropRequest+r.DropResponse+r.Delay:
		kind = KindDelay
	case u < r.DropRequest+r.DropResponse+r.Delay+r.Duplicate:
		kind = KindDuplicate
	case u < r.DropRequest+r.DropResponse+r.Delay+r.Duplicate+r.ServerError:
		kind = KindServerError
	case u < r.total():
		kind = KindReset
	default:
		return decision{}
	}
	p.record(siteName, kind)
	return decision{kind: kind, delay: delay}
}

// record counts one injected fault.
func (p *Plan) record(site string, kind Kind) {
	p.mu.Lock()
	m := p.count[site]
	if m == nil {
		m = make(map[Kind]uint64)
		p.count[site] = m
	}
	m[kind]++
	p.mu.Unlock()
	p.injected.With(site, string(kind)).Inc() //ahsvet:ignore locklabel sites and kinds come from the fixed fault-plan vocabulary
	p.cfg.Logf("faultinject: %s at %s", kind, site)
}

// Injected returns a copy of the per-site fault counts, for assertions
// that a chaos schedule actually exercised something.
func (p *Plan) Injected() map[string]map[Kind]uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make(map[string]map[Kind]uint64, len(p.count))
	for site, kinds := range p.count {
		m := make(map[Kind]uint64, len(kinds))
		for k, v := range kinds {
			m[k] = v
		}
		out[site] = m
	}
	return out
}

// resetError is the transport error surfaced for drops and resets. It
// reports itself as a timeout-free temporary network failure, which is how
// retrying clients classify real resets.
type resetError struct {
	site string
	kind Kind
}

func (e *resetError) Error() string {
	return fmt.Sprintf("faultinject: %s at %s: connection reset by peer", e.kind, e.site)
}

// Timeout implements net.Error.
func (e *resetError) Timeout() bool { return false }

// Temporary implements net.Error.
func (e *resetError) Temporary() bool { return true }

// transport wraps an http.RoundTripper with the plan.
type transport struct {
	plan *Plan
	next http.RoundTripper
	site func(*http.Request) string
}

// Transport wraps next (nil = http.DefaultTransport) so every outgoing
// request consults the plan, with the request's URL path as the site.
func (p *Plan) Transport(next http.RoundTripper) http.RoundTripper {
	return p.TransportWithSite(next, func(r *http.Request) string { return r.URL.Path })
}

// TransportWithSite is Transport with a custom request → site mapping
// (e.g. grouping all paths of one backend under a single site name).
func (p *Plan) TransportWithSite(next http.RoundTripper, site func(*http.Request) string) http.RoundTripper {
	if next == nil {
		next = http.DefaultTransport
	}
	return &transport{plan: p, next: next, site: site}
}

func (t *transport) RoundTrip(req *http.Request) (*http.Response, error) {
	site := t.site(req)
	d := t.plan.decide(site)
	if d.kind != "" {
		// Tag the active span (if any) so an injected fault shows up
		// inside the distributed trace of the request it sabotaged.
		obs.AddEvent(req.Context(), "fault.injected",
			obs.String("site", site), obs.String("kind", string(d.kind)))
	}
	switch d.kind {
	case KindDropRequest, KindReset:
		return nil, &resetError{site: site, kind: d.kind}
	case KindDropResponse:
		resp, err := t.next.RoundTrip(req)
		if err != nil {
			return nil, err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return nil, &resetError{site: site, kind: d.kind}
	case KindDelay:
		select {
		case <-req.Context().Done():
			return nil, req.Context().Err()
		case <-time.After(d.delay):
		}
		return t.next.RoundTrip(req)
	case KindDuplicate:
		// Both deliveries need the body; requests with GetBody (all
		// byte-buffer requests) can be replayed, others degrade to a
		// single delivery.
		if req.GetBody != nil {
			first := req.Clone(req.Context())
			if body, err := req.GetBody(); err == nil {
				first.Body = body
				if resp, err := t.next.RoundTrip(first); err == nil {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
				if body2, err := req.GetBody(); err == nil {
					req.Body = body2
				}
			}
		}
		return t.next.RoundTrip(req)
	case KindServerError:
		return &http.Response{
			Status:     "503 Service Unavailable",
			StatusCode: http.StatusServiceUnavailable,
			Proto:      req.Proto,
			ProtoMajor: req.ProtoMajor,
			ProtoMinor: req.ProtoMinor,
			Header:     http.Header{"Content-Type": []string{"text/plain"}},
			Body:       io.NopCloser(strings.NewReader("faultinject: synthesized 503\n")),
			Request:    req,
		}, nil
	default:
		return t.next.RoundTrip(req)
	}
}

// Handler wraps next so every request consults the plan server-side under
// the given site name ("" = the request path). Drops and resets abort the
// connection (http.ErrAbortHandler), server errors answer 503 before next
// runs, delays stall, duplicates re-invoke next twice with a replayed
// body when possible.
func (p *Plan) Handler(site string, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		name := site
		if name == "" {
			name = r.URL.Path
		}
		d := p.decide(name)
		if d.kind != "" {
			obs.AddEvent(r.Context(), "fault.injected",
				obs.String("site", name), obs.String("kind", string(d.kind)))
		}
		switch d.kind {
		case KindDropRequest, KindReset, KindDropResponse:
			// Server-side, all three collapse to "the connection died":
			// aborting the handler resets the client's connection.
			panic(http.ErrAbortHandler)
		case KindServerError:
			http.Error(w, "faultinject: synthesized 503", http.StatusServiceUnavailable)
		case KindDelay:
			select {
			case <-r.Context().Done():
				return
			case <-time.After(d.delay):
			}
			next.ServeHTTP(w, r)
		default:
			next.ServeHTTP(w, r)
		}
	})
}

// Pauser is a process-level pause hook: while paused, every RoundTrip
// through it blocks (the wrapped process looks alive but silent — the
// condition heartbeat timeouts and health probes exist for). Resume
// unblocks all waiters. The zero value is invalid; use NewPauser.
type Pauser struct {
	next http.RoundTripper

	mu      sync.Mutex
	resumed chan struct{} // closed when running; replaced when paused
}

// NewPauser wraps next (nil = http.DefaultTransport) in a running pauser.
func NewPauser(next http.RoundTripper) *Pauser {
	if next == nil {
		next = http.DefaultTransport
	}
	running := make(chan struct{})
	close(running)
	return &Pauser{next: next, resumed: running}
}

// Pause blocks subsequent calls until Resume. Idempotent.
func (p *Pauser) Pause() {
	p.mu.Lock()
	defer p.mu.Unlock()
	select {
	case <-p.resumed:
		p.resumed = make(chan struct{})
	default: // already paused
	}
}

// Resume unblocks paused calls. Idempotent.
func (p *Pauser) Resume() {
	p.mu.Lock()
	defer p.mu.Unlock()
	select {
	case <-p.resumed:
	default:
		close(p.resumed)
	}
}

// RoundTrip waits out any pause, then delegates.
func (p *Pauser) RoundTrip(req *http.Request) (*http.Response, error) {
	p.mu.Lock()
	ch := p.resumed
	p.mu.Unlock()
	select {
	case <-ch:
	case <-req.Context().Done():
		return nil, req.Context().Err()
	}
	return p.next.RoundTrip(req)
}

// Rand returns an independent deterministic stream for harness decisions
// that are not tied to a site (e.g. which worker to kill next), derived
// from the same seed namespace as the plan's sites.
func Rand(seed uint64, purpose string) *rng.Stream {
	h := fnv.New64a()
	h.Write([]byte("faultinject:"))
	h.Write([]byte(purpose))
	return rng.NewSource(seed).Stream(h.Sum64())
}
