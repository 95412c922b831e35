package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"testing"

	"ahs/internal/platoon"
	"ahs/internal/rng"
	"ahs/internal/san"
	"ahs/internal/sim"
)

// fingerprintDigests are the trajectory digests of TestTrajectoryFingerprint.
// They pin the executor's output bit for bit: a change to how the simulator
// scans, caches or draws may make it faster, but must reproduce these.
var fingerprintDigests = map[string]string{
	"DD/n=2":           "67dbc1ed55336fe5",
	"DD/n=2/phased":    "55324a54807aa317",
	"DD/n=10":          "0da940df5a6fbd9a",
	"DD/n=10/phased":   "a8eefb25fa66362b",
	"DC/n=2":           "a7a47f68ab115807",
	"DC/n=2/phased":    "55324a54807aa317",
	"DC/n=10":          "b6c373273443b35d",
	"DC/n=10/phased":   "70124a12127725d4",
	"CD/n=2":           "de9b198941e2c3e3",
	"CD/n=2/phased":    "4c22403bdc06a609",
	"CD/n=10":          "e163d89aaeb64153",
	"CD/n=10/phased":   "5673893937bfe50d",
	"CC/n=2":           "de9b198941e2c3e3",
	"CC/n=2/phased":    "4c22403bdc06a609",
	"CC/n=10":          "bfad0da191682872",
	"CC/n=10/phased":   "d68f36ac9f06142d",
	"DD/n=12":          "7f5ea3a9c466b132",
	"CC/n=12":          "7bea05d20c1892ae",
	"DD/n=10/naive":    "c9583bba156a3c02",
	"DD/n=10/adaptive": "b0368732b2ce58e5",
	"DD/n=10/restart":  "4605015a8646f8b2",
}

// fingerprintStreams is the number of trajectories hashed per case.
const fingerprintStreams = 200

var fingerprintTimes = []float64{2, 4, 6, 8, 10}

// hashTrajectory writes every output of one trajectory to h: the result
// fields and each probe value and weight, all as exact binary expansions.
func hashTrajectory(h hash.Hash, res sim.Result, err error, probe *sim.Probe) {
	fmt.Fprintf(h, "%v|%b %b %b %t %b %b %t|", err, res.Steps, res.InstantFirings,
		res.End, res.Stopped, res.StopTime, res.StopWeight, res.Deadlocked)
	for i := range probe.Values {
		fmt.Fprintf(h, "%b %b ", probe.Values[i], probe.Weights[i])
	}
}

// fingerprintRuns hashes fingerprintStreams trajectories of a over 10 h,
// started by start(runner, stream).
func fingerprintRuns(t *testing.T, a *AHS, bias *sim.Bias, start func(*sim.Runner, *rng.Stream, *sim.Probe) (sim.Result, error)) string {
	t.Helper()
	r, err := sim.NewRunner(a.Model, sim.Options{MaxTime: 10, Stop: a.Unsafe, Bias: bias})
	if err != nil {
		t.Fatal(err)
	}
	probe := &sim.Probe{Times: fingerprintTimes, Value: a.UnsafetyIndicator}
	h := sha256.New()
	src := rng.NewSource(1)
	for i := 0; i < fingerprintStreams; i++ {
		res, err := start(r, src.Stream(uint64(i)), probe)
		hashTrajectory(h, res, err, probe)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func runFromInitial(r *sim.Runner, s *rng.Stream, p *sim.Probe) (sim.Result, error) {
	return r.Run(s, p)
}

// TestTrajectoryFingerprint hashes the trajectories of every strategy at
// n ∈ {2, 10}, single-phase and phased, under the suggested failure bias,
// plus DD and CC at n=12, an unbiased run, a marking-dependent bias and
// restarts from a captured mid-trajectory marking (the path rare-event
// splitting takes).
func TestTrajectoryFingerprint(t *testing.T) {
	got := make(map[string]string)
	for _, s := range platoon.AllStrategies() {
		for _, n := range []int{2, 10} {
			for _, phased := range []bool{false, true} {
				p := DefaultParams().WithStrategy(s).WithPlatoonSize(n)
				p.PhasedManeuvers = phased
				a := MustBuild(p)
				bias, err := a.failureBiasSpec(a.SuggestedFailureBias(10))
				if err != nil {
					t.Fatal(err)
				}
				name := fmt.Sprintf("%s/n=%d", s, n)
				if phased {
					name += "/phased"
				}
				got[name] = fingerprintRuns(t, a, bias, runFromInitial)
			}
		}
	}

	// n=12's 197 timed activities take a fourth word in every bitset.
	for _, s := range []platoon.Strategy{platoon.DD, platoon.CC} {
		a := MustBuild(DefaultParams().WithStrategy(s).WithPlatoonSize(12))
		bias, err := a.failureBiasSpec(a.SuggestedFailureBias(10))
		if err != nil {
			t.Fatal(err)
		}
		got[fmt.Sprintf("%s/n=12", s)] = fingerprintRuns(t, a, bias, runFromInitial)
	}

	a := MustBuild(DefaultParams())
	got["DD/n=10/naive"] = fingerprintRuns(t, a, nil, runFromInitial)

	// State-dependent forcing: mild while every vehicle is healthy, strong
	// once a failure is active.
	adaptive := sim.NewBias()
	for _, name := range a.failureActivities {
		err := adaptive.SetFn(a.Model.TimedIndex(name), func(mk *san.Marking) float64 {
			if nA, nB, nC := a.ActiveFailures(mk); nA+nB+nC == 0 {
				return 36
			}
			return 3000
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	got["DD/n=10/adaptive"] = fingerprintRuns(t, a, adaptive, runFromInitial)

	// Capture the first failure-entry state under the suggested bias, then
	// restart every other stream from it; the streams between start from
	// the initial marking on the same runner.
	bias, err := a.failureBiasSpec(a.SuggestedFailureBias(10))
	if err != nil {
		t.Fatal(err)
	}
	entry, err := sim.NewRunner(a.Model, sim.Options{
		MaxTime: 10,
		Bias:    bias,
		Stop: func(mk *san.Marking) bool {
			nA, nB, nC := a.ActiveFailures(mk)
			return nA+nB+nC > 0
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	var mid *san.Marking
	var t0 float64
	for i := uint64(0); mid == nil; i++ {
		res, err := entry.Run(rng.NewSource(2).Stream(i))
		if err != nil {
			t.Fatal(err)
		}
		if res.Stopped && res.StopTime > 0 {
			mid, t0 = entry.Marking().Clone(), res.StopTime
		}
	}
	restarts := 0
	got["DD/n=10/restart"] = fingerprintRuns(t, a, bias, func(r *sim.Runner, s *rng.Stream, p *sim.Probe) (sim.Result, error) {
		if restarts++; restarts%2 == 0 {
			return r.Run(s, p)
		}
		return r.RunFrom(mid, t0, s, p)
	})

	for name, want := range fingerprintDigests {
		if got[name] != want {
			t.Errorf("%s: trajectory digest %s, want %s", name, got[name], want)
		}
	}
	if len(got) != len(fingerprintDigests) {
		t.Errorf("hashed %d cases, pinned %d", len(got), len(fingerprintDigests))
	}
}
