// Package platoon implements the AHS domain model of the paper's Section 2:
// the failure-mode / severity / maneuver taxonomy of Table 1, the
// catastrophic situations of Table 2, the coordination strategies of
// Table 3, and the computation of which vehicles participate in each
// recovery maneuver under each strategy (§2.2).
//
// The package is pure domain logic over plain values; internal/core adapts
// it onto Stochastic Activity Network markings.
package platoon

import (
	"fmt"
	"slices"
)

// FailureMode is one of the six single-vehicle failure modes of Table 1.
type FailureMode int

// Failure modes FM1..FM6, ordered as in Table 1 (decreasing severity).
const (
	FM1 FailureMode = iota + 1 // no brakes                          -> A3, Aided Stop
	FM2                        // cannot detect adjacent vehicles    -> A2, Crash Stop
	FM3                        // inter-vehicle communication failure-> A1, Gentle Stop
	FM4                        // transmission failure               -> B2, TIE-Escorted
	FM5                        // reduced steering capability        -> B1, TIE
	FM6                        // single failure in redundant sensors-> C,  TIE-Normal
)

// AllFailureModes lists FM1..FM6 in Table 1 order.
func AllFailureModes() []FailureMode {
	return []FailureMode{FM1, FM2, FM3, FM4, FM5, FM6}
}

// Valid reports whether f is one of FM1..FM6.
func (f FailureMode) Valid() bool { return f >= FM1 && f <= FM6 }

// String returns the paper's failure-mode label.
func (f FailureMode) String() string {
	if !f.Valid() {
		return fmt.Sprintf("FM?(%d)", int(f))
	}
	return fmt.Sprintf("FM%d", int(f))
}

// Severity is a failure-mode severity sub-class (Table 1). Class A gathers
// the failures requiring the vehicle to stop on the highway; classes B and C
// can be recovered by exiting without stopping traffic.
type Severity int

// Severity sub-classes in increasing criticality order.
const (
	SeverityC Severity = iota + 1
	SeverityB1
	SeverityB2
	SeverityA1
	SeverityA2
	SeverityA3
)

// String returns the paper's severity label.
func (s Severity) String() string {
	switch s {
	case SeverityC:
		return "C"
	case SeverityB1:
		return "B1"
	case SeverityB2:
		return "B2"
	case SeverityA1:
		return "A1"
	case SeverityA2:
		return "A2"
	case SeverityA3:
		return "A3"
	default:
		return fmt.Sprintf("Severity?(%d)", int(s))
	}
}

// Class is the coarse severity class used by the catastrophic situations of
// Table 2.
type Class int

// Coarse severity classes.
const (
	ClassC Class = iota + 1
	ClassB
	ClassA
)

// String returns "A", "B" or "C".
func (c Class) String() string {
	switch c {
	case ClassA:
		return "A"
	case ClassB:
		return "B"
	case ClassC:
		return "C"
	default:
		return fmt.Sprintf("Class?(%d)", int(c))
	}
}

// Class returns the coarse class of a severity sub-class.
func (s Severity) Class() Class {
	switch s {
	case SeverityA1, SeverityA2, SeverityA3:
		return ClassA
	case SeverityB1, SeverityB2:
		return ClassB
	default:
		return ClassC
	}
}

// Maneuver is one of the six recovery maneuvers of Table 1.
type Maneuver int

// Maneuvers in ascending priority order. Per §2.1.1, within class A,
// AS > CS > GS; TIE and TIE-E share class-B priority; TIE-N has the lowest.
const (
	TIEN Maneuver = iota + 1 // Take Immediate Exit - Normal
	TIE                      // Take Immediate Exit
	TIEE                     // Take Immediate Exit - Escorted
	GS                       // Gentle Stop
	CS                       // Crash Stop
	AS                       // Aided Stop
)

// AllManeuvers lists the maneuvers in ascending priority order.
func AllManeuvers() []Maneuver { return []Maneuver{TIEN, TIE, TIEE, GS, CS, AS} }

// Valid reports whether m is a defined maneuver.
func (m Maneuver) Valid() bool { return m >= TIEN && m <= AS }

// String returns the paper's maneuver abbreviation.
func (m Maneuver) String() string {
	switch m {
	case TIEN:
		return "TIE-N"
	case TIE:
		return "TIE"
	case TIEE:
		return "TIE-E"
	case GS:
		return "GS"
	case CS:
		return "CS"
	case AS:
		return "AS"
	default:
		return fmt.Sprintf("Maneuver?(%d)", int(m))
	}
}

// PriorityLevel returns the maneuver's priority for the refusal rule of
// §2.1.2. Higher is more urgent. TIE and TIE-E share a level because B1 and
// B2 have equal priority.
func (m Maneuver) PriorityLevel() int {
	switch m {
	case TIEN:
		return 1
	case TIE, TIEE:
		return 2
	case GS:
		return 3
	case CS:
		return 4
	case AS:
		return 5
	default:
		return 0
	}
}

// Severity returns the failure-mode severity of Table 1.
func (f FailureMode) Severity() Severity {
	switch f {
	case FM1:
		return SeverityA3
	case FM2:
		return SeverityA2
	case FM3:
		return SeverityA1
	case FM4:
		return SeverityB2
	case FM5:
		return SeverityB1
	default:
		return SeverityC
	}
}

// Class returns the failure mode's coarse severity class.
func (f FailureMode) Class() Class { return f.Severity().Class() }

// Maneuver returns the recovery maneuver associated with the failure mode
// in Table 1.
func (f FailureMode) Maneuver() Maneuver {
	switch f {
	case FM1:
		return AS
	case FM2:
		return CS
	case FM3:
		return GS
	case FM4:
		return TIEE
	case FM5:
		return TIE
	default:
		return TIEN
	}
}

// RateMultiplier returns the failure rate of the mode in units of the base
// rate λ (§4.1: λ6=4λ, λ5=3λ, λ4=λ3=λ2=2λ, λ1=λ).
func (f FailureMode) RateMultiplier() float64 {
	switch f {
	case FM1:
		return 1
	case FM2, FM3, FM4:
		return 2
	case FM5:
		return 3
	case FM6:
		return 4
	default:
		return 0
	}
}

// Escalate returns the more degraded failure mode the vehicle evolves to
// when its current maneuver fails (§2.1.2, Figure 2). The chain follows
// ascending maneuver priority: FM6→FM5→FM4→FM3→FM2→FM1. After FM1 (whose
// Aided Stop is the highest-priority maneuver), ok is false: the vehicle
// reaches v_KO and becomes a free agent.
func (f FailureMode) Escalate() (FailureMode, bool) {
	if f <= FM1 || !f.Valid() {
		return f, false
	}
	return f - 1, true
}

// ManeuverForMode implements the refusal rule of §2.1.2 on the maneuver
// alone: a vehicle with failure mode f whose natural maneuver is refused
// because a maneuver of priority floorLevel is already executing asks for
// maneuvers of increasing priority until one is accepted (equal priority is
// accepted). The failure mode itself — and hence its severity class — is
// unchanged by refusal; only actual maneuver failures degrade the mode.
//
// When the floor pushes a vehicle into class-B territory, FM4 keeps its
// escorted exit (TIE-E) and every other mode uses the unassisted TIE.
func ManeuverForMode(f FailureMode, floorLevel int) Maneuver {
	m := f.Maneuver()
	if m.PriorityLevel() >= floorLevel {
		return m
	}
	switch floorLevel {
	case 2:
		if f == FM4 {
			return TIEE
		}
		return TIE
	case 3:
		return GS
	case 4:
		return CS
	default:
		return AS
	}
}

// Situation identifies a catastrophic situation of Table 2.
type Situation int

// Catastrophic situations; SituationNone means the combination of active
// failures is survivable.
const (
	SituationNone Situation = iota
	ST1
	ST2
	ST3
)

// String names the situation.
func (s Situation) String() string {
	switch s {
	case ST1:
		return "ST1"
	case ST2:
		return "ST2"
	case ST3:
		return "ST3"
	default:
		return "none"
	}
}

// ClassifySituation evaluates Table 2 on the numbers of concurrently active
// class A, B and C failure modes and returns the first matching situation
// (ST1 before ST2 before ST3), or SituationNone.
func ClassifySituation(nA, nB, nC int) Situation {
	switch {
	case nA >= 2:
		return ST1
	case nA >= 1 && (nB >= 2 || (nB >= 1 && nC >= 1) || nC >= 3):
		return ST2
	case nB+nC >= 4:
		return ST3
	default:
		return SituationNone
	}
}

// Catastrophic reports whether the active failure counts form any of the
// catastrophic situations of Table 2.
func Catastrophic(nA, nB, nC int) bool {
	return ClassifySituation(nA, nB, nC) != SituationNone
}

// Coordination selects centralized or decentralized coordination (§2.2).
type Coordination int

// Coordination models.
const (
	Decentralized Coordination = iota + 1
	Centralized
)

// String returns "centralized" or "decentralized".
func (c Coordination) String() string {
	switch c {
	case Centralized:
		return "centralized"
	case Decentralized:
		return "decentralized"
	default:
		return fmt.Sprintf("Coordination?(%d)", int(c))
	}
}

// Strategy pairs the inter- and intra-platoon coordination models (Table 3).
type Strategy struct {
	Inter Coordination
	Intra Coordination
}

// The four strategies of Table 3.
var (
	DD = Strategy{Inter: Decentralized, Intra: Decentralized}
	DC = Strategy{Inter: Decentralized, Intra: Centralized}
	CD = Strategy{Inter: Centralized, Intra: Decentralized}
	CC = Strategy{Inter: Centralized, Intra: Centralized}
)

// AllStrategies lists the four strategies in Table 3 order.
func AllStrategies() []Strategy { return []Strategy{DD, DC, CD, CC} }

// String returns the paper's two-letter strategy code (inter then intra).
func (s Strategy) String() string {
	letter := func(c Coordination) string {
		if c == Centralized {
			return "C"
		}
		return "D"
	}
	return letter(s.Inter) + letter(s.Intra)
}

// ParseStrategy parses a two-letter code ("DD", "DC", "CD", "CC").
func ParseStrategy(code string) (Strategy, error) {
	if len(code) != 2 {
		return Strategy{}, fmt.Errorf("platoon: invalid strategy %q", code)
	}
	parse := func(b byte) (Coordination, error) {
		switch b {
		case 'D', 'd':
			return Decentralized, nil
		case 'C', 'c':
			return Centralized, nil
		default:
			return 0, fmt.Errorf("platoon: invalid coordination letter %q", string(b))
		}
	}
	inter, err := parse(code[0])
	if err != nil {
		return Strategy{}, err
	}
	intra, err := parse(code[1])
	if err != nil {
		return Strategy{}, err
	}
	return Strategy{Inter: inter, Intra: intra}, nil
}

// View is a read-only snapshot of the highway used to compute maneuver
// participants: the ordered vehicle ids of each lane's platoon (index 0 is
// the leader position). The paper's case study has two lanes; the model
// extends to more, with lane 0 adjacent to the highway exits (the paper's
// "larger number of platoons" future work).
type View struct {
	// Platoons holds each lane's member ids in front-to-back order,
	// ordered by lane (lane 0 borders the exits).
	Platoons [][]int
}

// Locate returns the platoon index and position of a vehicle, or ok=false.
func (v View) Locate(id int) (platoonIdx, pos int, ok bool) {
	for pi, members := range v.Platoons {
		for i, m := range members {
			if m == id {
				return pi, i, true
			}
		}
	}
	return 0, 0, false
}

// Participants returns the set of vehicles (other than the faulty vehicle
// itself) that must cooperate for the given maneuver under the given
// strategy, per §2.2.
//
// The exit maneuvers (TIE-N, TIE, TIE-E) take the faulty vehicle across or
// out of the highway and are inter-platoon coordinated (the Figure 3
// scenario: exits are arbitrated between lanes, through the road-side SAP
// when coordination is centralized):
//
//   - TIE-E centralized: all vehicles in front of the faulty vehicle
//     (including the leader), the vehicle just behind it, and the leader of
//     the neighbouring platoon — the paper's §2.2.1 example, verbatim.
//   - TIE-E decentralized: only the two platoon leaders and the vehicles
//     immediately in front of and behind the faulty vehicle — also §2.2.1.
//   - TIE / TIE-N with centralized inter: the physical split partners
//     (vehicle ahead and/or behind) plus both platoon leaders, through
//     which the SAP arbitrates the exit.
//   - TIE / TIE-N with decentralized inter: only the physical split
//     partners; the vehicle's onboard knowledge base replaces the SAP
//     round-trip. Centralized intra additionally involves the own platoon
//     leader, which calculates and orders the split (§2.2.2).
//
// The stop maneuvers (GS, CS, AS) keep the faulty vehicle in its lane and
// are intra-platoon coordinated: decentralized involves only the immediate
// neighbours of the split (the vehicle ahead for GS/AS — the AS stopper —
// and the vehicle behind in all cases); centralized adds the platoon
// leader, which calculates and orders the spacing changes (§2.2.2).
//
// When the faulty vehicle occupies the leader position, the "leader"
// participant is the vehicle that will take over the position (position 1).
// Referenced vehicles that do not exist (no vehicle ahead/behind, empty
// neighbouring platoon) are simply absent from the set.
//
// Participants appends the set's ids to dst, each once and in no particular
// order, and returns the extended slice, like append: a caller that passes
// a buffer with room for them allocates nothing.
func Participants(dst []int, v View, vehicle int, m Maneuver, s Strategy) ([]int, error) {
	if !m.Valid() {
		return dst, fmt.Errorf("platoon: invalid maneuver %d", int(m))
	}
	pi, pos, ok := v.Locate(vehicle)
	if !ok {
		return dst, fmt.Errorf("platoon: vehicle %d not in any platoon", vehicle)
	}
	members := v.Platoons[pi]
	// The neighbouring platoon is the one in the adjacent lane; exits lead
	// towards lane 0, so that side is preferred when both exist.
	var other []int
	switch {
	case pi > 0:
		other = v.Platoons[pi-1]
	case len(v.Platoons) > 1:
		other = v.Platoons[pi+1]
	}

	start := len(dst)
	addID := func(id int) {
		if id != vehicle && !slices.Contains(dst[start:], id) {
			dst = append(dst, id)
		}
	}
	addAt := func(list []int, idx int) {
		if idx >= 0 && idx < len(list) {
			addID(list[idx])
		}
	}
	ownLeader := func() {
		// The faulty vehicle never counts as its own coordinator; if it
		// holds the leader position, the successor coordinates.
		if pos == 0 {
			addAt(members, 1)
		} else {
			addAt(members, 0)
		}
	}
	neighbourLeader := func() { addAt(other, 0) }
	ahead := func() { addAt(members, pos-1) }
	behind := func() { addAt(members, pos+1) }

	switch m {
	case TIEE:
		behind()
		neighbourLeader()
		if s.Inter == Centralized {
			for i := 0; i < pos; i++ {
				addAt(members, i)
			}
		} else {
			ahead()
			ownLeader()
		}
	case TIE, TIEN:
		if m == TIE {
			ahead()
		}
		behind()
		if s.Intra == Centralized {
			// §2.2.2: under centralized intra-platoon coordination the
			// leader calculates and orders the split that precedes the
			// faulty vehicle's exit.
			ownLeader()
		}
		if s.Inter == Centralized {
			ownLeader()
			neighbourLeader()
		}
	case GS, AS:
		ahead()
		behind()
		if s.Intra == Centralized {
			ownLeader()
		}
	case CS:
		behind()
		if s.Intra == Centralized {
			ownLeader()
		}
	}

	return dst, nil
}
