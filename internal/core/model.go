package core

import (
	"fmt"
	"math"

	"ahs/internal/platoon"
	"ahs/internal/san"
	"ahs/internal/telemetry"
)

// Build constructs the composed SAN model of Figure 9: Lanes·N replicas of
// the One_vehicle submodel joined with the Severity, Dynamicity and
// Configuration submodels through shared places.
func Build(p Params) (*AHS, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	a := &AHS{Params: p, slots: p.Lanes * p.N}
	b := san.NewBuilder(fmt.Sprintf("ahs(n=%d,lanes=%d,strategy=%s)", p.N, p.Lanes, p.Strategy))

	a.buildConfiguration(b)
	a.buildSeverity(b)
	a.buildOneVehicleReplicas(b)
	a.buildDynamicity(b)

	model, err := b.Build()
	if err != nil {
		return nil, err
	}
	a.Model = model
	return a, nil
}

// MustBuild is Build for known-valid parameters; it panics on error.
func MustBuild(p Params) *AHS {
	a, err := Build(p)
	if err != nil {
		panic(err)
	}
	return a
}

// buildConfiguration realises the Configuration submodel (Figure 8): it
// creates the shared platoon and pool places and assigns the initial
// configuration — every platoon full, with lane k holding vehicles
// k·N .. k·N+N-1. (In Möbius this initialisation runs as instantaneous
// id_trigger firings at time zero; building it into the initial marking is
// equivalent and keeps the state space free of start-up transients.)
func (a *AHS) buildConfiguration(b *san.Builder) {
	n := a.Params.N
	a.lanes = make([]san.ExtPlaceID, a.Params.Lanes)
	for k := range a.lanes {
		members := make([]int, n)
		for i := 0; i < n; i++ {
			members[i] = k*n + i
		}
		a.lanes[k] = b.ExtPlace(fmt.Sprintf("platoon%d", k+1), members)
	}
	a.out = b.Place("OUT", 0)

	a.fm = make([]san.PlaceID, a.slots)
	a.man = make([]san.PlaceID, a.slots)
	a.phase = make([]san.PlaceID, a.slots)
	a.inSys = make([]san.PlaceID, a.slots)
	a.transit = make([]san.PlaceID, a.slots)
	for i := 0; i < a.slots; i++ {
		scope := b.Scope(fmt.Sprintf("vehicle[%d]", i))
		a.fm[i] = scope.Place("fm", 0)
		a.man[i] = scope.Place("maneuver", 0)
		a.phase[i] = scope.Place("phase", 0)
		a.inSys[i] = scope.Place("in_system", 1)
		a.transit[i] = scope.Place("transit", 0)
	}
}

// buildSeverity realises the Severity submodel (Figure 6): shared class
// counters and the instantaneous to_KO activity marking KO_total when the
// active failure combination matches a catastrophic situation of Table 2.
func (a *AHS) buildSeverity(b *san.Builder) {
	sb := b.Scope("severity")
	a.classA = sb.Place("class_A", 0)
	a.classB = sb.Place("class_B", 0)
	a.classC = sb.Place("class_C", 0)
	a.koTotal = sb.Place("KO_total", 0)
	a.koCause = sb.Place("KO_cause", 0)
	if a.Params.TrackOutcomes {
		a.vOK = sb.Place("v_OK", 0)
		a.vKO = sb.Place("v_KO", 0)
	}
	sb.Instant(san.InstantActivity{
		Name: "to_KO",
		Enabled: func(mk *san.Marking) bool {
			if mk.Tokens(a.koTotal) > 0 {
				return false
			}
			return platoon.Catastrophic(a.ActiveFailures(mk))
		},
		Input: func(mk *san.Marking) {
			mk.SetTokens(a.koTotal, 1)
			mk.SetTokens(a.koCause, int(platoon.ClassifySituation(a.ActiveFailures(mk))))
		},
	})
}

// buildOneVehicleReplicas realises the Lanes·N One_vehicle replicas
// (Figure 5):
// per vehicle, six failure-mode activities L1..L6 and one maneuver-execution
// activity whose success depends on the coordination strategy's participant
// set.
func (a *AHS) buildOneVehicleReplicas(b *san.Builder) {
	lambda := a.Params.Lambda
	b.Rep("one_vehicle", a.slots, func(rb *san.Builder, i int) {
		for _, fmode := range platoon.AllFailureModes() {
			fmode := fmode
			a.failureActivities = append(a.failureActivities,
				fmt.Sprintf("one_vehicle[%d].L%d", i, int(fmode)))
			rb.Timed(san.TimedActivity{
				Name: fmt.Sprintf("L%d", int(fmode)),
				Enabled: func(mk *san.Marking) bool {
					if mk.Tokens(a.inSys[i]) == 0 {
						return false
					}
					// A mode no more severe than the vehicle's governing
					// one is masked: the higher-priority recovery already
					// in progress subsumes it (§2.1.1).
					cur := platoon.FailureMode(mk.Tokens(a.fm[i]))
					return cur == 0 || fmode.Severity() > cur.Severity()
				},
				Rate: san.ConstRate(lambda * fmode.RateMultiplier()),
				Input: func(mk *san.Marking) {
					a.applyFailure(mk, i, fmode)
				},
			})
		}
		if a.Params.PhasedManeuvers {
			// Coordination phase: gather the participants; its success
			// carries the communication part of the failure model.
			rb.Timed(san.TimedActivity{
				Name: "coordinate",
				Enabled: func(mk *san.Marking) bool {
					return mk.Tokens(a.phase[i]) == 1
				},
				Rate: san.ConstRate(a.Params.CoordinationRate),
				Cases: []san.Case{
					{
						Weight: func(mk *san.Marking) float64 { return a.coordinationSuccessProb(mk, i) },
						Output: func(mk *san.Marking) { mk.SetTokens(a.phase[i], 2) },
					},
					{
						Complement: true,
						Output:     func(mk *san.Marking) { a.escalateAfterFailure(mk, i) },
					},
				},
			})
		}
		rb.Timed(san.TimedActivity{
			Name: "maneuver",
			Enabled: func(mk *san.Marking) bool {
				return mk.Tokens(a.phase[i]) == 2
			},
			Rate: func(mk *san.Marking) float64 {
				return a.Params.ManeuverRates[mk.Tokens(a.man[i])]
			},
			Cases: []san.Case{
				{ // success: the vehicle exits the highway safely (v_OK)
					Weight: func(mk *san.Marking) float64 { return a.maneuverSuccessProb(mk, i) },
					Output: func(mk *san.Marking) {
						// Read the maneuver before removeVehicle clears it.
						if s := a.tsink(); s != nil {
							s.Add(telemetry.MetricManeuverAttempts, //ahsvet:ignore locklabel maneuver names are the closed platoon.AllManeuvers set
								platoon.Maneuver(mk.Tokens(a.man[i])).String(), 1)
						}
						if a.Params.TrackOutcomes {
							mk.Add(a.vOK, 1)
						}
						a.removeVehicle(mk, i)
					},
				},
				{ // failure: escalate along the chain of Figure 2
					Complement: true,
					Output: func(mk *san.Marking) {
						if s := a.tsink(); s != nil {
							m := platoon.Maneuver(mk.Tokens(a.man[i])).String()
							s.Add(telemetry.MetricManeuverAttempts, m, 1) //ahsvet:ignore locklabel maneuver names are the closed platoon.AllManeuvers set
							s.Add(telemetry.MetricManeuverFailures, m, 1) //ahsvet:ignore locklabel maneuver names are the closed platoon.AllManeuvers set
						}
						a.escalateAfterFailure(mk, i)
					},
				},
			},
		})
	})
}

// buildDynamicity realises the Dynamicity submodel (Figure 7): voluntary
// join and leave of vehicles and platoon changes. Activities with zero rate
// are omitted, which lets reduced configurations (for exact CTMC solution)
// switch dynamics off entirely.
func (a *AHS) buildDynamicity(b *san.Builder) {
	db := b.Scope("dynamicity")
	n := a.Params.N

	hasSpace := func(pl san.ExtPlaceID) san.Predicate {
		return func(mk *san.Marking) bool { return mk.ExtLen(pl) < n }
	}

	if a.Params.JoinRate > 0 {
		// Join: a waiting vehicle enters the highway and joins one of the
		// platoons with space, chosen uniformly (the instantaneous
		// activity JP of Figure 7, with its 50/50 cases, folded into the
		// cases and generalised to any lane count).
		joinTo := func(pl san.ExtPlaceID) san.Effect {
			return func(mk *san.Marking) {
				slot := a.freeSlot(mk)
				mk.ExtAppend(pl, slot)
				mk.SetTokens(a.inSys[slot], 1)
				mk.Add(a.out, -1)
			}
		}
		anySpace := make([]san.Predicate, len(a.lanes))
		cases := make([]san.Case, len(a.lanes))
		for k, lane := range a.lanes {
			anySpace[k] = hasSpace(lane)
			cases[k] = san.Case{Weight: boolWeight(hasSpace(lane)), Output: joinTo(lane)}
		}
		db.Timed(san.TimedActivity{
			Name: "join",
			Enabled: san.AllOf(
				san.HasTokens(a.out, 1),
				san.AnyOf(anySpace...),
			),
			Rate:  san.ConstRate(a.Params.JoinRate),
			Cases: cases,
		})
	}

	if a.Params.LeaveRate > 0 {
		// LeaveRate is the system-level voluntary departure rate (§4.1
		// quotes one "leave rate"), split evenly between the per-lane
		// leave activities of Figure 7 so that ρ = join/leave is a genuine
		// inflow/outflow load factor.
		perLaneLeave := a.Params.LeaveRate / float64(len(a.lanes))
		for k, lane := range a.lanes {
			k, lane := k, lane
			if k == 0 {
				// leave1: a lane-0 vehicle exits the highway directly.
				db.Timed(san.TimedActivity{
					Name: "leave1",
					Enabled: func(mk *san.Marking) bool {
						return a.rearLeavable(mk, lane) >= 0
					},
					Rate: san.ConstRate(perLaneLeave),
					Input: func(mk *san.Marking) {
						pos := a.rearLeavable(mk, lane)
						a.removeVehicle(mk, mk.ExtAt(lane, pos))
					},
				})
				continue
			}
			// leaveK (K > 1): the vehicle starts its exit by crossing into
			// the next lane towards the exits, where it stays 3-4 minutes
			// in transit (§4.1) before hopping on.
			below := a.lanes[k-1]
			db.Timed(san.TimedActivity{
				Name: fmt.Sprintf("leave%d", k+1),
				Enabled: func(mk *san.Marking) bool {
					return a.rearLeavable(mk, lane) >= 0 && mk.ExtLen(below) < n
				},
				Rate: san.ConstRate(perLaneLeave),
				Input: func(mk *san.Marking) {
					pos := a.rearLeavable(mk, lane)
					id := mk.ExtAt(lane, pos)
					mk.ExtRemoveAt(lane, pos)
					mk.ExtAppend(below, id)
					mk.SetTokens(a.transit[id], 1)
				},
			})
		}
		// Completion of one pass-through stage: the transiting vehicle
		// exits from lane 0, or hops one more lane towards it.
		b.Rep("transit_exit", a.slots, func(rb *san.Builder, i int) {
			rb.Timed(san.TimedActivity{
				Name: "done",
				Enabled: func(mk *san.Marking) bool {
					if mk.Tokens(a.transit[i]) != 1 || mk.Tokens(a.fm[i]) != 0 {
						return false
					}
					lane := a.laneOf(mk, i)
					return lane == 0 || mk.ExtLen(a.lanes[lane-1]) < n
				},
				Rate: san.ConstRate(a.Params.PassThroughRate),
				Input: func(mk *san.Marking) {
					lane := a.laneOf(mk, i)
					if lane == 0 {
						a.removeVehicle(mk, i)
						return
					}
					pos := mk.ExtIndexOf(a.lanes[lane], i)
					mk.ExtRemoveAt(a.lanes[lane], pos)
					mk.ExtAppend(a.lanes[lane-1], i)
				},
			})
		})
	}

	if a.Params.ChangeRate > 0 {
		change := func(name string, from, to san.ExtPlaceID) {
			db.Timed(san.TimedActivity{
				Name: name,
				Enabled: func(mk *san.Marking) bool {
					return a.rearLeavable(mk, from) >= 0 && mk.ExtLen(to) < n
				},
				Rate: san.ConstRate(a.Params.ChangeRate),
				Input: func(mk *san.Marking) {
					pos := a.rearLeavable(mk, from)
					id := mk.ExtAt(from, pos)
					mk.ExtRemoveAt(from, pos)
					mk.ExtAppend(to, id)
				},
			})
		}
		// ch1/ch2 of Figure 7 between lanes 1 and 2; further adjacent lane
		// pairs continue the numbering.
		idx := 1
		for k := 0; k+1 < len(a.lanes); k++ {
			change(fmt.Sprintf("ch%d", idx), a.lanes[k], a.lanes[k+1])
			idx++
			change(fmt.Sprintf("ch%d", idx), a.lanes[k+1], a.lanes[k])
			idx++
		}
	}
}

// laneOf returns the lane index holding vehicle i, or -1.
func (a *AHS) laneOf(mk *san.Marking, i int) int {
	for k, lane := range a.lanes {
		if mk.ExtIndexOf(lane, i) >= 0 {
			return k
		}
	}
	return -1
}

// boolWeight converts a predicate into a 0/1 case weight.
func boolWeight(p san.Predicate) san.WeightFn {
	return func(mk *san.Marking) float64 {
		if p(mk) {
			return 1
		}
		return 0
	}
}

// freeSlot returns the lowest-index empty vehicle slot. Vehicles are
// statistically exchangeable, so deterministic slot reuse does not bias the
// model and keeps the reachable state space small.
func (a *AHS) freeSlot(mk *san.Marking) int {
	for i := 0; i < a.slots; i++ {
		if mk.Tokens(a.inSys[i]) == 0 {
			return i
		}
	}
	panic("core: join fired with no free slot")
}

// rearLeavable returns the position of the rear-most operational,
// non-transit member of the platoon, or -1. Voluntary moves (leave, change)
// are performed by healthy vehicles from the platoon tail, where splitting
// off is cheapest.
func (a *AHS) rearLeavable(mk *san.Marking, pl san.ExtPlaceID) int {
	for pos := mk.ExtLen(pl) - 1; pos >= 0; pos-- {
		id := mk.ExtAt(pl, pos)
		if mk.Tokens(a.fm[id]) == 0 && mk.Tokens(a.transit[id]) == 0 {
			return pos
		}
	}
	return -1
}

// maxOtherManeuverLevel returns the highest priority level among maneuvers
// active on vehicles other than self (the refusal rule's neighbourhood; in
// the two-platoon system every vehicle shares one coordination domain).
// It returns 0 when the refusal rule is ablated.
func (a *AHS) maxOtherManeuverLevel(mk *san.Marking, self int) int {
	if a.Params.DisableRefusal {
		return 0
	}
	level := 0
	for j := 0; j < a.slots; j++ {
		if j == self {
			continue
		}
		if m := platoon.Maneuver(mk.Tokens(a.man[j])); m != 0 {
			if l := m.PriorityLevel(); l > level {
				level = l
			}
		}
	}
	return level
}

// setMode updates vehicle i's governing failure mode and attempted
// maneuver, keeping the shared severity counters consistent. The severity
// counters track failure modes (as in the paper's Severity submodel), not
// maneuvers: a refusal-escalated maneuver does not change the mode's class.
func (a *AHS) setMode(mk *san.Marking, i int, mode platoon.FailureMode, m platoon.Maneuver) {
	if old := platoon.FailureMode(mk.Tokens(a.fm[i])); old != 0 {
		a.addClass(mk, old.Class(), -1)
	}
	mk.SetTokens(a.fm[i], int(mode))
	if mode == 0 {
		mk.SetTokens(a.man[i], 0)
		mk.SetTokens(a.phase[i], 0)
		return
	}
	a.addClass(mk, mode.Class(), 1)
	mk.SetTokens(a.man[i], int(m))
	if a.Params.PhasedManeuvers {
		mk.SetTokens(a.phase[i], 1)
	} else {
		mk.SetTokens(a.phase[i], 2)
	}
}

func (a *AHS) addClass(mk *san.Marking, c platoon.Class, delta int) {
	switch c {
	case platoon.ClassA:
		mk.Add(a.classA, delta)
	case platoon.ClassB:
		mk.Add(a.classB, delta)
	default:
		mk.Add(a.classC, delta)
	}
}

// applyFailure handles the firing of failure mode fmode on vehicle i: the
// governing mode becomes fmode (the enabling predicate guarantees it is
// more severe than the current one) and the requested maneuver is escalated
// per the refusal rule of §2.1.2 until its priority is at least that of
// every maneuver already executing elsewhere — and at least the maneuver
// the vehicle was already performing.
func (a *AHS) applyFailure(mk *san.Marking, i int, fmode platoon.FailureMode) {
	floor := a.maxOtherManeuverLevel(mk, i)
	if cur := platoon.Maneuver(mk.Tokens(a.man[i])); cur != 0 && cur.PriorityLevel() > floor {
		floor = cur.PriorityLevel()
	}
	a.setMode(mk, i, fmode, platoon.ManeuverForMode(fmode, floor))
}

// escalateAfterFailure handles a failed maneuver attempt (§2.1.2, Figure 2):
// the vehicle evolves to the next more degraded failure mode of the chain
// and attempts that mode's maneuver (refusal-escalated against the current
// neighbourhood). When the failed attempt was the Aided Stop — the highest
// priority maneuver — no recovery remains: the vehicle reaches v_KO and
// leaves the platoons as a free agent.
func (a *AHS) escalateAfterFailure(mk *san.Marking, i int) {
	cur := platoon.FailureMode(mk.Tokens(a.fm[i]))
	man := platoon.Maneuver(mk.Tokens(a.man[i]))
	next, ok := cur.Escalate()
	if man == platoon.AS || !ok {
		if a.Params.TrackOutcomes {
			mk.Add(a.vKO, 1)
		}
		a.removeVehicle(mk, i)
		return
	}
	if a.Params.DisableEscalation {
		return // ablated: retry the same maneuver
	}
	a.setMode(mk, i, next, platoon.ManeuverForMode(next, a.maxOtherManeuverLevel(mk, i)))
}

// removeVehicle takes vehicle i off the highway: out of its platoon, out of
// transit, failure state cleared (with severity counters updated), and its
// slot returned to the OUT pool so a new vehicle can join.
func (a *AHS) removeVehicle(mk *san.Marking, i int) {
	for _, lane := range a.lanes {
		if pos := mk.ExtIndexOf(lane, i); pos >= 0 {
			mk.ExtRemoveAt(lane, pos)
			break
		}
	}
	a.setMode(mk, i, 0, 0)
	mk.SetTokens(a.transit[i], 0)
	mk.SetTokens(a.inSys[i], 0)
	mk.Add(a.out, 1)
}

// maneuverSuccessProb returns the probability that vehicle i's current
// maneuver attempt succeeds:
//
//	(1 - base) · (1 - q)^participants · penalty^degraded
//
// where base is the intrinsic failure probability, q the per-participant
// coordination failure probability and degraded the number of participants
// that are themselves running recovery maneuvers. Both factors are the
// coupling through which the coordination strategy influences safety:
// centralized coordination involves more vehicles per maneuver (§2.2.1), so
// every attempt carries more coordination risk and a nearby degraded
// vehicle is more likely to be needed.
func (a *AHS) maneuverSuccessProb(mk *san.Marking, i int) float64 {
	p := 1 - a.Params.ManeuverBaseFailure
	if !a.Params.PhasedManeuvers {
		// Single-phase model: fold the coordination risk into the
		// execution attempt.
		p *= a.coordinationSuccessProb(mk, i)
	}
	return p
}

// coordinationSuccessProb is the participant-dependent part of the success
// probability: (1-q)^|participants|·penalty^degraded. It runs on every
// maneuver case weight, so its view and participant set live in stack
// buffers; the product depends only on the set's size and degraded count,
// not on its order.
func (a *AHS) coordinationSuccessProb(mk *san.Marking, i int) float64 {
	var lanes [4][]int
	var buf [16]int
	m := platoon.Maneuver(mk.Tokens(a.man[i]))
	parts, err := platoon.Participants(buf[:0], a.viewInto(lanes[:0], mk), i, m, a.Params.Strategy)
	if err != nil {
		// Reached only on an internal invariant violation: a maneuver
		// active on a vehicle missing from both platoons.
		panic(fmt.Sprintf("core: participant computation for vehicle %d: %v", i, err))
	}
	degraded := 0
	for _, id := range parts {
		if mk.Tokens(a.fm[id]) != 0 {
			degraded++
		}
	}
	p := 1.0
	if q := a.Params.ParticipantFailure; q > 0 && len(parts) > 0 {
		p = math.Pow(1-q, float64(len(parts)))
	}
	if degraded > 0 {
		p *= math.Pow(a.Params.DegradedPenalty, float64(degraded))
	}
	return p
}
