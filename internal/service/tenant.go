package service

import (
	"context"
	"sync"

	"ahs/internal/telemetry"
)

// DefaultTenant is the tenant jobs are attributed to when the submitter
// names none (no X-AHS-Tenant header, no Config.DefaultTenant override).
const DefaultTenant = "default"

// maxTenantLabels caps the distinct tenant values exported as metric
// labels. X-AHS-Tenant is client-controlled, so without a cap a hostile or
// misconfigured client could mint unbounded label cardinality; tenants
// past the cap share the overflow label below. Scheduling is NOT capped —
// every tenant with queued jobs gets its own round-robin lane regardless.
const maxTenantLabels = 64

// tenantOverflowLabel aggregates tenants past maxTenantLabels.
const tenantOverflowLabel = "_other"

// tenantKey carries the tenant identity through a context.
type tenantKey struct{}

// WithTenant attributes work submitted with ctx to tenant; empty is a
// no-op. The HTTP layer calls it with the X-AHS-Tenant header, and the
// sweep engine re-applies the submitting request's tenant to every design
// point it fans out.
func WithTenant(ctx context.Context, tenant string) context.Context {
	if tenant == "" {
		return ctx
	}
	return context.WithValue(ctx, tenantKey{}, tenant)
}

// TenantFrom extracts the tenant carried by ctx, or fallback.
func TenantFrom(ctx context.Context, fallback string) string {
	if t, ok := ctx.Value(tenantKey{}).(string); ok && t != "" {
		return t
	}
	return fallback
}

// tenantMetrics exports the per-tenant ahs_tenant_* families with bounded
// label cardinality.
type tenantMetrics struct {
	submitted *telemetry.CounterVec
	completed *telemetry.CounterVec
	rejected  *telemetry.CounterVec
	depth     *telemetry.GaugeVec

	mu     sync.Mutex
	labels map[string]struct{} // tenants exported under their own label
}

func newTenantMetrics(reg *telemetry.Registry) *tenantMetrics {
	return &tenantMetrics{
		submitted: reg.CounterVec(telemetry.Opts{
			Name: "ahs_tenant_submitted_total",
			Help: "Accepted evaluation requests by tenant (cache and dedup hits included).",
		}, "tenant"),
		completed: reg.CounterVec(telemetry.Opts{
			Name: "ahs_tenant_completed_total",
			Help: "Jobs finished successfully by tenant.",
		}, "tenant"),
		rejected: reg.CounterVec(telemetry.Opts{
			Name: "ahs_tenant_rejected_total",
			Help: "Submissions bounced by tenant (full queue or tenant quota).",
		}, "tenant"),
		depth: reg.GaugeVec(telemetry.Opts{
			Name: "ahs_tenant_queue_depth",
			Help: "Jobs queued but not yet running, by tenant.",
		}, "tenant"),
	}
}

// label maps a tenant to its exported label value, folding tenants past
// the cardinality cap into the overflow label. Only the first
// maxTenantLabels tenants are remembered, so the set stays bounded however
// many names clients send.
func (t *tenantMetrics) label(tenant string) string {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.labels[tenant]; ok {
		return tenant
	}
	if len(t.labels) >= maxTenantLabels {
		return tenantOverflowLabel
	}
	if t.labels == nil {
		t.labels = make(map[string]struct{})
	}
	t.labels[tenant] = struct{}{}
	return tenant
}

func (t *tenantMetrics) onSubmit(tenant string) {
	l := t.label(tenant)
	t.submitted.With(l).Inc() //ahsvet:ignore locklabel tenant labels are capped at maxTenantLabels with an overflow bucket
}

func (t *tenantMetrics) onComplete(tenant string) {
	l := t.label(tenant)
	t.completed.With(l).Inc() //ahsvet:ignore locklabel tenant labels are capped at maxTenantLabels with an overflow bucket
}

func (t *tenantMetrics) onReject(tenant string) {
	l := t.label(tenant)
	t.rejected.With(l).Inc() //ahsvet:ignore locklabel tenant labels are capped at maxTenantLabels with an overflow bucket
}

func (t *tenantMetrics) addDepth(tenant string, delta int64) {
	l := t.label(tenant)
	t.depth.With(l).Add(delta) //ahsvet:ignore locklabel tenant labels are capped at maxTenantLabels with an overflow bucket
}
