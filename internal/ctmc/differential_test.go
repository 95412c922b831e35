package ctmc

import (
	"fmt"
	"math"
	"testing"

	"ahs/internal/rng"
	"ahs/internal/san"
	"ahs/internal/sim"
	"ahs/internal/stats"
)

// randomTokenNet generates a small random token-moving SAN: a handful of
// capacity-bounded places and activities that move a token between two
// places (or mint/burn at the boundary), all with exponential rates. Every
// such net has a finite state space, so the exact solver applies.
func randomTokenNet(r *rng.Stream, id int) (*san.Model, []san.PlaceID) {
	b := san.NewBuilder(fmt.Sprintf("random-%d", id))
	nPlaces := 2 + r.Intn(3) // 2..4 places
	caps := make([]int, nPlaces)
	places := make([]san.PlaceID, nPlaces)
	for i := range places {
		caps[i] = 1 + r.Intn(3) // capacity 1..3
		places[i] = b.Place(fmt.Sprintf("p%d", i), r.Intn(caps[i]+1))
	}
	nActs := 2 + r.Intn(4) // 2..5 activities
	for a := 0; a < nActs; a++ {
		rate := 0.5 + 3*r.Float64()
		kind := r.Intn(3)
		switch kind {
		case 0: // mint a token into a random place
			dst := r.Intn(nPlaces)
			b.Timed(san.TimedActivity{
				Name:    fmt.Sprintf("mint%d", a),
				Enabled: func(mk *san.Marking) bool { return mk.Tokens(places[dst]) < caps[dst] },
				Rate:    san.ConstRate(rate),
				Input:   san.Produce(places[dst], 1),
			})
		case 1: // burn a token from a random place
			src := r.Intn(nPlaces)
			b.Timed(san.TimedActivity{
				Name:    fmt.Sprintf("burn%d", a),
				Enabled: san.HasTokens(places[src], 1),
				Rate:    san.ConstRate(rate),
				Input:   san.Consume(places[src], 1),
			})
		default: // move a token between two random places
			src := r.Intn(nPlaces)
			dst := r.Intn(nPlaces)
			if dst == src {
				dst = (src + 1) % nPlaces
			}
			b.Timed(san.TimedActivity{
				Name: fmt.Sprintf("move%d", a),
				Enabled: func(mk *san.Marking) bool {
					return mk.Tokens(places[src]) >= 1 && mk.Tokens(places[dst]) < caps[dst]
				},
				Rate:  san.ConstRate(rate),
				Input: san.Move(places[src], places[dst], 1),
			})
		}
	}
	return b.MustBuild(), places
}

// TestDifferentialSimulatorVsExactOnRandomNets is a randomized differential
// test of the whole evaluation stack: for a batch of randomly generated
// token nets, the race-semantics simulator, the event-queue executor and
// the uniformization solver must agree on a transient token count.
func TestDifferentialSimulatorVsExactOnRandomNets(t *testing.T) {
	metaStream := rng.NewStream(2026)
	const horizon = 1.5
	const batches = 6000
	for modelID := 0; modelID < 12; modelID++ {
		m, places := randomTokenNet(metaStream, modelID)
		g, err := Explore(m, ExploreOptions{MaxStates: 10000})
		if err != nil {
			t.Fatalf("model %d: explore: %v", modelID, err)
		}
		if err := g.CheckGeneratorConsistency(); err != nil {
			t.Fatalf("model %d: %v", modelID, err)
		}
		// Exact expected token count of place 0 at the horizon.
		dist, err := g.TransientDistribution(horizon)
		if err != nil {
			t.Fatalf("model %d: transient: %v", modelID, err)
		}
		exact := 0.0
		for s, p := range dist {
			exact += p * float64(g.States[s].Tokens(places[0]))
		}

		value := func(mk *san.Marking) float64 { return float64(mk.Tokens(places[0])) }
		estimate := func(run func(stream *rng.Stream, probe *sim.Probe) error) *stats.Welford {
			probe := &sim.Probe{Times: []float64{horizon}, Value: value}
			src := rng.NewSource(uint64(1000 + modelID))
			var acc stats.Welford
			for i := 0; i < batches; i++ {
				if err := run(src.Stream(uint64(i)), probe); err != nil {
					t.Fatalf("model %d: %v", modelID, err)
				}
				acc.Add(probe.Values[0])
			}
			return &acc
		}

		race, err := sim.NewRunner(m, sim.Options{MaxTime: horizon})
		if err != nil {
			t.Fatalf("model %d: %v", modelID, err)
		}
		raceAcc := estimate(func(s *rng.Stream, p *sim.Probe) error {
			_, err := race.Run(s, p)
			return err
		})
		general, err := sim.NewGeneralRunner(m, sim.Options{MaxTime: horizon})
		if err != nil {
			t.Fatalf("model %d: %v", modelID, err)
		}
		genAcc := estimate(func(s *rng.Stream, p *sim.Probe) error {
			_, err := general.Run(s, p)
			return err
		})

		for name, acc := range map[string]*stats.Welford{"race": raceAcc, "event-queue": genAcc} {
			tol := 5*acc.StdErr() + 1e-9
			if math.Abs(acc.Mean()-exact) > tol {
				t.Errorf("model %d (%d states): %s executor %v vs exact %v (tol %v)",
					modelID, g.NumStates(), name, acc.Mean(), exact, tol)
			}
		}
	}
}
