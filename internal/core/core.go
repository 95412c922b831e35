// Package core implements the paper's primary contribution: the
// compositional SAN safety model of a two-lane Automated Highway System
// (Section 3) and the evaluation of its unsafety measure S(t) — the
// probability that the AHS has reached one of the catastrophic situations
// of Table 2 by time t (Section 4).
//
// The composed model mirrors Figure 4/Figure 9 of the paper: 2n replicas of
// the One_vehicle submodel joined with the Severity, Dynamicity and
// Configuration submodels through shared places. See model.go for the
// submodels and eval.go for the Monte-Carlo evaluation (naive and
// rare-event importance sampling).
package core

import (
	"errors"
	"fmt"
	"sync/atomic"

	"ahs/internal/platoon"
	"ahs/internal/san"
	"ahs/internal/telemetry"
)

// Params collects every model parameter of §4.1. The zero value is not
// valid; start from DefaultParams.
type Params struct {
	// N is the maximum number of vehicles per platoon; the system holds
	// Lanes·N vehicle slots and starts with every platoon full.
	N int
	// Lanes is the number of highway lanes, one platoon per lane (the
	// paper's case study uses 2; its stated future work extends to more).
	// Lane 0 borders the highway exits: vehicles leaving from lane k > 0
	// pass through each lane below it. Default 2.
	Lanes int
	// Lambda is the base failure rate λ per hour. Failure mode FMi fires
	// at λ·RateMultiplier(FMi) (λ6=4λ … λ1=λ).
	Lambda float64
	// ManeuverRates holds the execution rate (per hour) of each maneuver,
	// indexed by platoon.Maneuver (1..6). The paper uses values between
	// 15/hr and 30/hr (durations of 2–4 minutes).
	ManeuverRates [7]float64
	// JoinRate is the rate at which new vehicles enter the highway while
	// a slot and platoon capacity are available (paper default 12/hr).
	JoinRate float64
	// LeaveRate is the system-level voluntary departure rate (paper
	// default 4/hr), split evenly across the per-lane leave activities.
	// Lane-0 vehicles exit directly; vehicles in outer lanes first pass
	// through each lane between them and the exits (§4.1).
	LeaveRate float64
	// ChangeRate is the platoon-change rate between each adjacent lane
	// pair and direction (the paper's ch1 = ch2 = 6/hr).
	ChangeRate float64
	// PassThroughRate governs each 3–4 minute lane traversal of an
	// exiting vehicle on its way to lane 0 (default 60/3.5 ≈ 17.1/hr).
	PassThroughRate float64
	// ManeuverBaseFailure is the intrinsic per-attempt failure probability
	// of a maneuver with fully operational participants. The paper leaves
	// it implicit; see DESIGN.md §2.
	ManeuverBaseFailure float64
	// ParticipantFailure is the probability that one (operational)
	// participating vehicle fails to play its part in a maneuver —
	// coordination over the ad-hoc network is fallible. Every maneuver's
	// success probability carries a (1-q)^|participants| factor, which is
	// how centralized strategies (larger participant sets, §2.2.1) end up
	// less safe.
	ParticipantFailure float64
	// DegradedPenalty multiplies the maneuver success probability once per
	// degraded participant: success = (1-base)·(1-q)^n·penalty^k. Smaller
	// values couple nearby failures more strongly.
	DegradedPenalty float64
	// Strategy selects the coordination strategy of Table 3.
	Strategy platoon.Strategy
	// TrackOutcomes adds cumulative v_OK / v_KO counter places. They are
	// useful observables in simulation but blow up the state space of
	// exact CTMC solution, so reduced models switch them off.
	TrackOutcomes bool

	// PhasedManeuvers splits every maneuver into the two phases of the
	// PATH atomic-maneuver protocols [15]: a coordination phase, whose
	// success depends on the participants (their number and health — the
	// communication part), followed by an execution phase carrying the
	// intrinsic ManeuverBaseFailure. The single-phase default folds both
	// into one exponential attempt; the phased variant adds the
	// coordination latency and separates the two failure sources.
	PhasedManeuvers bool
	// CoordinationRate is the rate of the coordination phase when
	// PhasedManeuvers is on (default 60/hr, i.e. one minute to gather the
	// participants' acknowledgements).
	CoordinationRate float64

	// DisableRefusal ablates the §2.1.2 refusal rule: requested maneuvers
	// are never escalated against maneuvers active elsewhere. For
	// sensitivity studies of the design choices; see the ablation
	// benchmarks.
	DisableRefusal bool
	// DisableEscalation ablates the Figure 2 degradation chain: a failed
	// maneuver attempt is simply retried instead of degrading the failure
	// mode (a failed Aided Stop still ends in v_KO).
	DisableEscalation bool
}

// DefaultParams returns the parameter set used for Figures 10/11/14 of the
// paper: n=10, λ=1e-5/hr, join 12/hr, leave 4/hr, change 6/hr,
// decentralized/decentralized coordination.
func DefaultParams() Params {
	p := Params{
		N:                   10,
		Lanes:               2,
		Lambda:              1e-5,
		JoinRate:            12,
		LeaveRate:           4,
		ChangeRate:          6,
		PassThroughRate:     60 / 3.5,
		CoordinationRate:    60,
		ManeuverBaseFailure: 0.02,
		ParticipantFailure:  0.02,
		DegradedPenalty:     0.2,
		Strategy:            platoon.DD,
		TrackOutcomes:       true,
	}
	// Maneuver durations between 2 and 4 minutes (§4.1): emergency stops
	// are quickest, assisted/escorted maneuvers slowest.
	p.ManeuverRates[platoon.TIEN] = 30
	p.ManeuverRates[platoon.TIE] = 25
	p.ManeuverRates[platoon.TIEE] = 20
	p.ManeuverRates[platoon.GS] = 20
	p.ManeuverRates[platoon.CS] = 30
	p.ManeuverRates[platoon.AS] = 15
	return p
}

// Validate checks parameter consistency.
func (p Params) Validate() error {
	var errs []error
	if p.N < 1 {
		errs = append(errs, fmt.Errorf("core: N must be >= 1, got %d", p.N))
	}
	if p.Lanes < 1 {
		errs = append(errs, fmt.Errorf("core: Lanes must be >= 1, got %d", p.Lanes))
	}
	if !(p.Lambda > 0) {
		errs = append(errs, fmt.Errorf("core: Lambda must be positive, got %v", p.Lambda))
	}
	for _, m := range platoon.AllManeuvers() {
		if !(p.ManeuverRates[m] > 0) {
			errs = append(errs, fmt.Errorf("core: maneuver rate for %v must be positive, got %v", m, p.ManeuverRates[m]))
		}
	}
	if p.JoinRate < 0 || p.LeaveRate < 0 || p.ChangeRate < 0 {
		errs = append(errs, errors.New("core: dynamicity rates must be non-negative"))
	}
	if p.PhasedManeuvers && !(p.CoordinationRate > 0) {
		errs = append(errs, errors.New("core: CoordinationRate must be positive with PhasedManeuvers"))
	}
	if p.LeaveRate > 0 && !(p.PassThroughRate > 0) {
		errs = append(errs, errors.New("core: PassThroughRate must be positive when vehicles leave"))
	}
	if p.ManeuverBaseFailure < 0 || p.ManeuverBaseFailure >= 1 {
		errs = append(errs, fmt.Errorf("core: ManeuverBaseFailure must be in [0,1), got %v", p.ManeuverBaseFailure))
	}
	if p.ParticipantFailure < 0 || p.ParticipantFailure >= 1 {
		errs = append(errs, fmt.Errorf("core: ParticipantFailure must be in [0,1), got %v", p.ParticipantFailure))
	}
	if p.DegradedPenalty < 0 || p.DegradedPenalty > 1 {
		errs = append(errs, fmt.Errorf("core: DegradedPenalty must be in [0,1], got %v", p.DegradedPenalty))
	}
	if p.Strategy.Inter == 0 || p.Strategy.Intra == 0 {
		errs = append(errs, errors.New("core: Strategy must be set (see platoon.DD/DC/CD/CC)"))
	}
	return errors.Join(errs...)
}

// Load returns the system load ρ = join_rate / leave_rate of §4.3.
func (p Params) Load() float64 {
	if p.LeaveRate == 0 {
		return 0
	}
	return p.JoinRate / p.LeaveRate
}

// AHS is the built safety model: the composed SAN of Figure 9 plus handles
// to the shared places needed to define measures.
type AHS struct {
	// Params echoes the construction parameters.
	Params Params
	// Model is the composed SAN.
	Model *san.Model

	slots int // Lanes * N

	// Shared places (Severity and Dynamicity submodels).
	lanes    []san.ExtPlaceID // one ordered platoon per lane
	out      san.PlaceID
	classA   san.PlaceID
	classB   san.PlaceID
	classC   san.PlaceID
	koTotal  san.PlaceID
	koCause  san.PlaceID
	vOK, vKO san.PlaceID // only when TrackOutcomes

	// Per-vehicle places (One_vehicle replicas).
	fm      []san.PlaceID // current failure mode (0 = operational)
	man     []san.PlaceID // current maneuver (0 = none)
	phase   []san.PlaceID // 0 = none, 1 = coordinating, 2 = executing
	inSys   []san.PlaceID // vehicle on the highway
	transit []san.PlaceID // passing through platoon 1 on the way out

	// failureActivities names the L1..L6 activities of every replica, for
	// importance-sampling bias construction.
	failureActivities []string

	// sink is the installed telemetry sink (see Instrument). The maneuver
	// activities consult it through an atomic load on every attempt, so it
	// can be installed or cleared while simulations run.
	sink atomic.Pointer[sinkCell]
}

// sinkCell boxes a telemetry.Sink so atomic.Pointer can hold interface
// values of any concrete type.
type sinkCell struct{ s telemetry.Sink }

// Instrument installs a telemetry sink on the model: every maneuver
// execution reports an attempt — and, when the failure case fires, a
// failure — under the recovery type's Table 1 abbreviation (AS, CS, GS,
// TIE, TIE-E, TIE-N). Passing nil uninstruments the model. The sink must
// be safe for concurrent use; simulation workers report from their own
// goroutines. Evaluations running at the same time on the same AHS share
// whichever sink is installed last.
func (a *AHS) Instrument(s telemetry.Sink) {
	if s == nil {
		a.sink.Store(nil)
		return
	}
	a.sink.Store(&sinkCell{s: s})
}

// tsink returns the installed sink, or nil.
func (a *AHS) tsink() telemetry.Sink {
	if c := a.sink.Load(); c != nil {
		return c.s
	}
	return nil
}

// Unsafe reports whether the marking is in the absorbing unsafe state
// (KO_total marked) — the event whose probability is S(t).
func (a *AHS) Unsafe(mk *san.Marking) bool { return mk.Tokens(a.koTotal) > 0 }

// UnsafetyIndicator is the measured value: 1 in unsafe markings, else 0.
func (a *AHS) UnsafetyIndicator(mk *san.Marking) float64 {
	if a.Unsafe(mk) {
		return 1
	}
	return 0
}

// Cause returns the catastrophic situation of Table 2 that triggered
// KO_total (SituationNone in safe markings).
func (a *AHS) Cause(mk *san.Marking) platoon.Situation {
	return platoon.Situation(mk.Tokens(a.koCause))
}

// ActiveFailures returns the numbers of active class A, B and C failure
// modes in the marking (the shared severity places of Figure 6).
func (a *AHS) ActiveFailures(mk *san.Marking) (nA, nB, nC int) {
	return mk.Tokens(a.classA), mk.Tokens(a.classB), mk.Tokens(a.classC)
}

// LaneSizes returns the current platoon size of each lane.
func (a *AHS) LaneSizes(mk *san.Marking) []int {
	sizes := make([]int, len(a.lanes))
	for i, lane := range a.lanes {
		sizes[i] = mk.ExtLen(lane)
	}
	return sizes
}

// View builds the platoon.View of a marking, used for participant
// computation and exposed for tests and diagnostics.
func (a *AHS) View(mk *san.Marking) platoon.View { return a.viewInto(nil, mk) }

// viewInto is View with its lanes appended to the caller's buffer; the
// lanes alias the marking's extended places.
func (a *AHS) viewInto(lanes [][]int, mk *san.Marking) platoon.View {
	for _, lane := range a.lanes {
		lanes = append(lanes, mk.Ext(lane))
	}
	return platoon.View{Platoons: lanes}
}

// CheckInvariants verifies structural invariants of a marking reached
// during execution. It is used heavily by tests:
//
//   - every in-system vehicle appears in exactly one platoon, every
//     out-of-system vehicle in none;
//   - platoon sizes never exceed N;
//   - severity counters match the per-vehicle failure modes;
//   - a vehicle has a maneuver iff it has a failure mode, and the
//     maneuver's priority is at least the mode's natural maneuver priority;
//   - transit vehicles sit in platoon 1.
func (a *AHS) CheckInvariants(mk *san.Marking) error {
	seen := make(map[int]int, a.slots)
	for li, size := range a.LaneSizes(mk) {
		if size > a.Params.N {
			return fmt.Errorf("core: lane %d overflows with %d vehicles (N=%d)", li, size, a.Params.N)
		}
		for _, id := range mk.Ext(a.lanes[li]) {
			seen[id]++
		}
	}
	wantA, wantB, wantC := 0, 0, 0
	for i := 0; i < a.slots; i++ {
		in := mk.Tokens(a.inSys[i]) == 1
		if seen[i] > 1 {
			return fmt.Errorf("core: vehicle %d in two platoons", i)
		}
		if in != (seen[i] == 1) {
			return fmt.Errorf("core: vehicle %d inSys=%v but platoon membership=%d", i, in, seen[i])
		}
		f := platoon.FailureMode(mk.Tokens(a.fm[i]))
		m := platoon.Maneuver(mk.Tokens(a.man[i]))
		if (f == 0) != (m == 0) {
			return fmt.Errorf("core: vehicle %d has fm=%v but maneuver=%v", i, f, m)
		}
		phase := mk.Tokens(a.phase[i])
		switch {
		case m == 0 && phase != 0:
			return fmt.Errorf("core: vehicle %d has phase %d without a maneuver", i, phase)
		case m != 0 && phase != 1 && phase != 2:
			return fmt.Errorf("core: vehicle %d maneuvering with phase %d", i, phase)
		case m != 0 && !a.Params.PhasedManeuvers && phase != 2:
			return fmt.Errorf("core: vehicle %d in coordination phase without PhasedManeuvers", i)
		}
		if f != 0 {
			if !in {
				return fmt.Errorf("core: degraded vehicle %d is not in the system", i)
			}
			if !f.Valid() || !m.Valid() {
				return fmt.Errorf("core: vehicle %d has invalid fm=%d man=%d", i, int(f), int(m))
			}
			if m.PriorityLevel() < f.Maneuver().PriorityLevel() {
				return fmt.Errorf("core: vehicle %d maneuver %v below mode %v's natural maneuver", i, m, f)
			}
			switch f.Class() {
			case platoon.ClassA:
				wantA++
			case platoon.ClassB:
				wantB++
			default:
				wantC++
			}
		}
		if mk.Tokens(a.transit[i]) == 1 && seen[i] != 1 {
			return fmt.Errorf("core: transit vehicle %d not in any lane", i)
		}
	}
	gotA, gotB, gotC := a.ActiveFailures(mk)
	if gotA != wantA || gotB != wantB || gotC != wantC {
		return fmt.Errorf("core: severity counters (%d,%d,%d) != derived (%d,%d,%d)",
			gotA, gotB, gotC, wantA, wantB, wantC)
	}
	if outs := mk.Tokens(a.out); outs != a.slots-len(seen) {
		return fmt.Errorf("core: OUT=%d but %d slots free", outs, a.slots-len(seen))
	}
	cause := a.Cause(mk)
	if a.Unsafe(mk) != (cause != platoon.SituationNone) {
		return fmt.Errorf("core: KO_total=%v inconsistent with cause %v", a.Unsafe(mk), cause)
	}
	return nil
}
