package service

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"ahs/internal/telemetry"
)

// qjob builds a minimal job record for queue-level tests.
func qjob(id, tenant string) *job {
	return &job{id: id, tenant: tenant, done: make(chan struct{})}
}

// popIDs drains n jobs and returns their ids in service order.
func popIDs(t *testing.T, q *fairQueue, n int) []string {
	t.Helper()
	ids := make([]string, 0, n)
	for i := 0; i < n; i++ {
		j, ok := q.pop()
		if !ok {
			t.Fatalf("queue closed after %d pops, want %d", i, n)
		}
		ids = append(ids, j.id)
	}
	return ids
}

func TestFairQueueRoundRobinAcrossTenants(t *testing.T) {
	q := newFairQueue(16, 0)
	for _, j := range []*job{
		qjob("a1", "A"), qjob("a2", "A"), qjob("a3", "A"), qjob("a4", "A"),
		qjob("b1", "B"), qjob("b2", "B"),
	} {
		if err := q.push(j); err != nil {
			t.Fatal(err)
		}
	}
	got := strings.Join(popIDs(t, q, 6), " ")
	// Equal weights: strict alternation while both tenants have backlog,
	// then A's remainder. B's two jobs are never pushed behind A's flood.
	if want := "a1 b1 a2 b2 a3 a4"; got != want {
		t.Fatalf("service order %q, want %q", got, want)
	}
	if q.len() != 0 {
		t.Fatalf("queue len %d after drain", q.len())
	}
}

func TestFairQueueTenantQuota(t *testing.T) {
	q := newFairQueue(16, 2)
	if err := q.push(qjob("a1", "A")); err != nil {
		t.Fatal(err)
	}
	if err := q.push(qjob("a2", "A")); err != nil {
		t.Fatal(err)
	}
	if err := q.push(qjob("a3", "A")); !errors.Is(err, ErrTenantQuota) {
		t.Fatalf("third queued job for A: err = %v, want ErrTenantQuota", err)
	}
	// The quota is per tenant: B still has full headroom.
	if err := q.push(qjob("b1", "B")); err != nil {
		t.Fatal(err)
	}
	// Draining one of A's jobs frees a slot.
	popIDs(t, q, 1)
	if err := q.push(qjob("a3", "A")); err != nil {
		t.Fatalf("push after drain: %v", err)
	}
}

func TestFairQueueCapacityAndClose(t *testing.T) {
	q := newFairQueue(2, 0)
	if err := q.push(qjob("a1", "A")); err != nil {
		t.Fatal(err)
	}
	if err := q.push(qjob("b1", "B")); err != nil {
		t.Fatal(err)
	}
	if err := q.push(qjob("c1", "C")); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("over capacity: err = %v, want ErrQueueFull", err)
	}
	q.close()
	if err := q.push(qjob("d1", "D")); !errors.Is(err, ErrShuttingDown) {
		t.Fatalf("push after close: err = %v, want ErrShuttingDown", err)
	}
	// The backlog still drains after close, then pop reports closed.
	if got := strings.Join(popIDs(t, q, 2), " "); got != "a1 b1" {
		t.Fatalf("drained %q, want %q", got, "a1 b1")
	}
	if j, ok := q.pop(); ok {
		t.Fatalf("pop after drain returned %v", j.id)
	}
}

// TestFairShareBoundsSaturatingTenant is the manager-level fairness
// acceptance: a tenant flooding the queue cannot starve another tenant's
// jobs — with round-robin service, a small tenant's work starts within a
// couple of scheduling turns regardless of the flooder's backlog.
func TestFairShareBoundsSaturatingTenant(t *testing.T) {
	eval := newScriptedEval()
	m := NewManager(Config{Workers: 1, Eval: eval.fn})
	defer m.Shutdown(context.Background())

	hogCtx := WithTenant(context.Background(), "hog")
	smallCtx := WithTenant(context.Background(), "small")

	// The hog saturates: one job runs immediately, five more queue up.
	for seed := uint64(100); seed < 106; seed++ {
		if _, err := m.SubmitCtx(hogCtx, testScenario(seed)); err != nil {
			t.Fatal(err)
		}
	}
	smallHashes := make(map[string]bool)
	for seed := uint64(200); seed < 202; seed++ {
		sc := testScenario(seed)
		hash, err := sc.Hash()
		if err != nil {
			t.Fatal(err)
		}
		smallHashes[hash] = true
		if v, err := m.SubmitCtx(smallCtx, sc); err != nil {
			t.Fatal(err)
		} else if v.Tenant != "small" {
			t.Fatalf("job attributed to tenant %q, want small", v.Tenant)
		}
	}

	// Release the single worker one job at a time and record start order.
	starts := []string{eval.waitStarted(t)}
	for len(starts) < 8 {
		eval.release <- struct{}{}
		starts = append(starts, eval.waitStarted(t))
	}
	eval.release <- struct{}{} // let the last job finish

	// FIFO would start the small tenant's jobs 7th and 8th; fair-share
	// interleaves them with the hog's, so both appear in the first five.
	seen := 0
	for _, h := range starts[:5] {
		if smallHashes[h] {
			seen++
		}
	}
	if seen != len(smallHashes) {
		t.Fatalf("only %d/%d small-tenant jobs started in the first 5 of %q",
			seen, len(smallHashes), starts)
	}
}

// TestTenantQuotaRejectsOnlyThatTenant pins per-tenant admission: one
// tenant at its quota bounces with ErrTenantQuota while others keep
// submitting, and the rejection shows up in the per-tenant metrics.
func TestTenantQuotaRejectsOnlyThatTenant(t *testing.T) {
	eval := newScriptedEval()
	m := NewManager(Config{Workers: 1, TenantQuota: 2, Eval: eval.fn})
	defer func() {
		close(eval.release)
		m.Shutdown(context.Background())
	}()

	ctxA := WithTenant(context.Background(), "acme")
	ctxB := WithTenant(context.Background(), "beta")

	if _, err := m.SubmitCtx(ctxA, testScenario(61)); err != nil {
		t.Fatal(err)
	}
	eval.waitStarted(t) // running, not queued: doesn't count toward the quota
	for seed := uint64(62); seed < 64; seed++ {
		if _, err := m.SubmitCtx(ctxA, testScenario(seed)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.SubmitCtx(ctxA, testScenario(64)); !errors.Is(err, ErrTenantQuota) {
		t.Fatalf("quota overflow: err = %v, want ErrTenantQuota", err)
	}
	if _, err := m.SubmitCtx(ctxB, testScenario(65)); err != nil {
		t.Fatalf("other tenant rejected: %v", err)
	}
	if got := m.Metrics().QueueRejects.Value(); got != 1 {
		t.Fatalf("queueRejects = %d, want 1", got)
	}

	var buf strings.Builder
	if err := m.Registry().WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		`ahs_tenant_rejected_total{tenant="acme"} 1`,
		`ahs_tenant_submitted_total{tenant="acme"} 4`,
		`ahs_tenant_submitted_total{tenant="beta"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition lacks %q", want)
		}
	}
}

// TestTenantLabelCardinalityCapped: metric labels fold into the overflow
// bucket past the cap, while scheduling still tracks every tenant.
func TestTenantLabelCardinalityCapped(t *testing.T) {
	tm := newTenantMetrics(telemetry.NewRegistry())
	for i := 0; i < maxTenantLabels; i++ {
		if got := tm.label(strings.Repeat("t", i+1)); got == tenantOverflowLabel {
			t.Fatalf("tenant %d folded before the cap", i)
		}
	}
	if got := tm.label("one-past-the-cap"); got != tenantOverflowLabel {
		t.Fatalf("tenant past cap labeled %q, want %q", got, tenantOverflowLabel)
	}
	// Known tenants keep their identity label.
	if got := tm.label("t"); got != "t" {
		t.Fatalf("existing tenant relabeled %q", got)
	}
}

// TestTenantStateBoundedUnderManyTenants: X-AHS-Tenant is client-chosen,
// so neither the queue's lanes nor the metric labels may keep one entry
// per tenant name ever seen.
func TestTenantStateBoundedUnderManyTenants(t *testing.T) {
	q := newFairQueue(16, 0)
	tm := newTenantMetrics(telemetry.NewRegistry())
	for i := 0; i < 10000; i++ {
		tenant := fmt.Sprintf("tenant-%d", i)
		if err := q.push(qjob(fmt.Sprint(i), tenant)); err != nil {
			t.Fatal(err)
		}
		tm.onSubmit(tenant)
		if got := popIDs(t, q, 1)[0]; got != fmt.Sprint(i) {
			t.Fatalf("popped job %s, want %d", got, i)
		}
		tm.onComplete(tenant)
	}
	if n := len(q.tenants); n != 0 {
		t.Fatalf("queue keeps %d drained lanes", n)
	}
	if n := len(q.ring); n != 0 {
		t.Fatalf("queue ring keeps %d drained lanes", n)
	}
	if n := len(tm.labels); n > maxTenantLabels {
		t.Fatalf("tenant metrics remember %d labels, cap %d", n, maxTenantLabels)
	}
	for i := 0; i < maxTenantLabels; i++ {
		tenant := fmt.Sprintf("tenant-%d", i)
		if got := tm.label(tenant); got != tenant {
			t.Fatalf("tenant %s labeled %q", tenant, got)
		}
	}
	if got := tm.label("tenant-9999"); got != tenantOverflowLabel {
		t.Fatalf("late tenant labeled %q, want %q", got, tenantOverflowLabel)
	}
}
