package fleet

import (
	"ahs/internal/telemetry"
)

// metrics are the ahs_fleet_* families. The failover e2e's assertions
// rest on them: exactly-once is "completed counters across the fleet sum
// to the scenario count", failover is "promotions_total went 0→1 and
// epoch rose", and fencing is "fenced_writes_total counted the stale
// put". Without a registry they live in a private one that nothing
// scrapes.
type metrics struct {
	claims     *telemetry.Counter
	conflicts  *telemetry.Counter
	steals     *telemetry.Counter
	promotions *telemetry.Counter
	adoptions  *telemetry.Counter
	// fencedIn counts stale puts this node rejected as the writer;
	// fencedOut counts this node's own puts a writer fenced.
	fencedIn  *telemetry.Counter
	fencedOut *telemetry.Counter
	forwarded *telemetry.Counter
	ingested  *telemetry.Counter
	epoch     *telemetry.Gauge
	role      *telemetry.Gauge
}

// roleValue encodes roles for the ahs_fleet_role gauge.
func roleValue(r Role) int64 {
	switch r {
	case RoleWriter:
		return 2
	case RolePromoting:
		return 1
	default:
		return 0
	}
}

func newMetrics(reg *telemetry.Registry, n *Node) metrics {
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	counter := func(name, help string) *telemetry.Counter {
		return reg.Counter(telemetry.Opts{Name: name, Help: help})
	}
	return metrics{
		claims:     counter("ahs_fleet_claims_total", "Work claims this node acquired (steals and adoptions included)."),
		conflicts:  counter("ahs_fleet_claim_conflicts_total", "Claim attempts lost to a live peer (submitter redirected)."),
		steals:     counter("ahs_fleet_steals_total", "Expired peer claims this node took over."),
		promotions: counter("ahs_fleet_promotions_total", "Follower-to-writer promotions this node performed."),
		adoptions:  counter("ahs_fleet_adoptions_total", "Dead nodes' unfinished scenarios re-submitted at promotion."),
		fencedIn:   counter("ahs_fleet_fenced_writes_total", "Stale result puts this node rejected as the writer."),
		fencedOut:  counter("ahs_fleet_fenced_out_total", "This node's result puts fenced by a writer."),
		forwarded:  counter("ahs_fleet_forwarded_results_total", "Finished results forwarded to the writer."),
		ingested:   counter("ahs_fleet_ingested_results_total", "Peer results this node persisted as the writer."),
		epoch:      reg.Gauge(telemetry.Opts{Name: "ahs_fleet_epoch", Help: "Fencing epoch this node operates under."}),
		role:       reg.Gauge(telemetry.Opts{Name: "ahs_fleet_role", Help: "Node role: 0 follower, 1 promoting, 2 writer."}),
	}
}

func (m *metrics) observeRole(r Role) { m.role.Set(roleValue(r)) }

func (m *metrics) observeEpoch(e uint64) { m.epoch.Set(int64(e)) }
