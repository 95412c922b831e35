package service

import (
	"context"

	"ahs/internal/cluster"
	"ahs/internal/config"
)

// ClusterEval returns an EvalFunc that fans each job out across the
// coordinator's workers instead of simulating in-process. Determinism makes
// the swap invisible to callers: the merged curve is bit-identical to the
// local evaluation of the same scenario, so cached results, dedup by
// scenario hash, and the HTTP API all behave exactly as with the local
// backend. workers bounds the parallelism of the chunks the coordinator
// simulates itself while no live worker is registered.
func ClusterEval(coord *cluster.Coordinator) EvalFunc {
	return func(ctx context.Context, sc *config.Scenario, workers int, progress func(done, max uint64)) (*Result, error) {
		hash, err := sc.Hash()
		if err != nil {
			return nil, err
		}
		curve, bias, err := coord.UnsafetyCurve(ctx, sc, workers, progress)
		if err != nil {
			return nil, err
		}
		return curveResult(sc.Name, hash, curve, bias), nil
	}
}

// ClusterBackend returns the health reporter matching ClusterEval, for
// Config.Backend.
func ClusterBackend(coord *cluster.Coordinator) func() BackendHealth {
	return func() BackendHealth {
		st := coord.Status()
		return BackendHealth{
			Mode:              "cluster",
			Ready:             true, // no live workers → the coordinator simulates locally
			WorkersRegistered: st.WorkersRegistered,
			WorkersLive:       st.WorkersLive,
			RecoveredJobs:     st.RecoveredJobs,
			Draining:          st.Draining,
		}
	}
}
