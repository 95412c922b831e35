package ctmc_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"strconv"
	"testing"

	"ahs/internal/core"
	"ahs/internal/ctmc"
	"ahs/internal/platoon"
	"ahs/internal/san"
)

// markingKey renders a marking as the canonical interning key of the
// reachability walk: every simple place's tokens, then every extended
// place's contents in brackets.
func markingKey(mk *san.Marking) string {
	buf := make([]byte, 0, 64)
	model := mk.Model()
	for p := 0; p < model.NumPlaces(); p++ {
		buf = strconv.AppendInt(buf, int64(mk.Tokens(san.PlaceID(p))), 10)
		buf = append(buf, ',')
	}
	for p := 0; p < model.NumExtPlaces(); p++ {
		buf = append(buf, '[')
		for _, v := range mk.Ext(san.ExtPlaceID(p)) {
			buf = strconv.AppendInt(buf, int64(v), 10)
			buf = append(buf, ',')
		}
		buf = append(buf, ']')
	}
	return string(buf)
}

// graphDigest hashes a graph's initial index, its states in order and each
// state's arcs with their exact rate bits.
func graphDigest(g *ctmc.Graph) string {
	var h hash.Hash = sha256.New()
	fmt.Fprintf(h, "init=%d\n", g.Initial)
	for s, mk := range g.States {
		fmt.Fprintf(h, "%d %s\n", s, markingKey(mk))
		for _, a := range g.Arcs(s) {
			fmt.Fprintf(h, "  %d %x\n", a.To, math.Float64bits(a.Rate))
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// TestExploreGraphFingerprint pins the reachability graphs of four reduced
// AHS systems, state order and rate bits included. The digests were
// produced by an earlier implementation of the walk and must not be
// edited: a refactoring of the walk has to reproduce them exactly.
func TestExploreGraphFingerprint(t *testing.T) {
	lint := core.DefaultParams().WithPlatoonSize(1).WithStrategy(platoon.DD)
	lint.TrackOutcomes = false
	phased := lint
	phased.PhasedManeuvers = true
	static := func(n int) core.Params {
		p := lint.WithPlatoonSize(n)
		p.Lambda = 1e-5
		p.JoinRate, p.LeaveRate, p.ChangeRate = 0, 0, 0
		return p
	}
	cases := []struct {
		name         string
		params       core.Params
		states, arcs int
		digest       string
	}{
		{"lint-DD", lint, 815, 5952, "14159a812c980125"},
		{"n=1-static", static(1), 142, 854, "987b0f7a98c928c8"},
		{"lint-DD-phased", phased, 2627, 19466, "d07b9eb5bfa642b5"},
		{"n=2-static", static(2), 22027, 115840, "30a3a078cf23185f"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sys, err := core.Build(tc.params)
			if err != nil {
				t.Fatal(err)
			}
			g, err := ctmc.Explore(sys.Model, ctmc.ExploreOptions{Absorb: sys.Unsafe})
			if err != nil {
				t.Fatal(err)
			}
			if g.NumStates() != tc.states || g.NumTransitions() != tc.arcs {
				t.Errorf("%d states, %d arcs; want %d, %d", g.NumStates(), g.NumTransitions(), tc.states, tc.arcs)
			}
			if got := graphDigest(g); got != tc.digest {
				t.Errorf("digest %s, want %s", got, tc.digest)
			}
		})
	}
}
