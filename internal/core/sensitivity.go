package core

import (
	"fmt"
	"math"
)

// Sensitivity is one row of a sensitivity analysis: the elasticity
// d ln S / d ln θ of the unsafety with respect to parameter θ, estimated by
// a central finite difference on a relative perturbation with common
// random numbers.
type Sensitivity struct {
	// Parameter names the perturbed quantity.
	Parameter string
	// Base is the unperturbed parameter value.
	Base float64
	// SLow and SHigh are the unsafety estimates at (1-rel)·Base and
	// (1+rel)·Base.
	SLow, SHigh float64
	// Elasticity is (ln SHigh − ln SLow) / (ln θHigh − ln θLow); for a
	// power-law dependence S ∝ θ^k it recovers k.
	Elasticity float64
}

// sensitivityTarget is one perturbable parameter.
type sensitivityTarget struct {
	name string
	get  func(*Params) float64
	set  func(*Params, float64)
}

func sensitivityTargets() []sensitivityTarget {
	return []sensitivityTarget{
		{"lambda", func(p *Params) float64 { return p.Lambda }, func(p *Params, v float64) { p.Lambda = v }},
		{"join_rate", func(p *Params) float64 { return p.JoinRate }, func(p *Params, v float64) { p.JoinRate = v }},
		{"leave_rate", func(p *Params) float64 { return p.LeaveRate }, func(p *Params, v float64) { p.LeaveRate = v }},
		{"change_rate", func(p *Params) float64 { return p.ChangeRate }, func(p *Params, v float64) { p.ChangeRate = v }},
		{"maneuver_base_failure", func(p *Params) float64 { return p.ManeuverBaseFailure }, func(p *Params, v float64) { p.ManeuverBaseFailure = v }},
		{"participant_failure", func(p *Params) float64 { return p.ParticipantFailure }, func(p *Params, v float64) { p.ParticipantFailure = v }},
	}
}

// SensitivityTable estimates the elasticity of S(t) with respect to each
// positive model parameter, perturbing one at a time by ±rel (e.g. 0.25)
// and reusing the same random streams for every variant so that the
// differences are parameter-driven. Parameters whose base value is zero are
// skipped (no relative perturbation exists).
func SensitivityTable(p Params, t float64, opts EvalOptions, rel float64) ([]Sensitivity, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if !(rel > 0) || rel >= 1 {
		return nil, fmt.Errorf("core: relative perturbation %v outside (0,1)", rel)
	}
	estimate := func(variant Params) (float64, error) {
		sys, err := Build(variant)
		if err != nil {
			return 0, err
		}
		o := opts
		if o.FailureBias == 0 {
			o.FailureBias = sys.SuggestedFailureBias(t)
		}
		iv, err := sys.Unsafety(t, o)
		if err != nil {
			return 0, err
		}
		return iv.Point, nil
	}

	var out []Sensitivity
	for _, target := range sensitivityTargets() {
		base := target.get(&p)
		if base == 0 {
			continue
		}
		lowP, highP := p, p
		target.set(&lowP, base*(1-rel))
		target.set(&highP, base*(1+rel))
		sLow, err := estimate(lowP)
		if err != nil {
			return nil, fmt.Errorf("core: sensitivity %s low: %w", target.name, err)
		}
		sHigh, err := estimate(highP)
		if err != nil {
			return nil, fmt.Errorf("core: sensitivity %s high: %w", target.name, err)
		}
		row := Sensitivity{Parameter: target.name, Base: base, SLow: sLow, SHigh: sHigh}
		if sLow > 0 && sHigh > 0 {
			row.Elasticity = (math.Log(sHigh) - math.Log(sLow)) /
				(math.Log(base*(1+rel)) - math.Log(base*(1-rel)))
		} else {
			row.Elasticity = math.NaN()
		}
		out = append(out, row)
	}
	return out, nil
}
