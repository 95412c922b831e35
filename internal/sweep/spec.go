// Package sweep turns one evaluation request into a whole parameter study:
// a declarative design (full grid or Latin-hypercube sample) over the axes
// of config.Scenario expands deterministically into concrete scenarios,
// deduplicates them by canonical scenario hash, and fans the unique points
// out as jobs through the internal/service manager — and therefore through
// internal/cluster when the server runs with -cluster. The per-point
// reproducibility contract of the rest of the stack carries over: every
// expanded point yields a curve bit-identical to submitting that scenario
// as a standalone job.
//
// cmd/ahs-serve mounts the HTTP API (POST /v1/sweeps, GET /v1/sweeps/{id},
// per-point results and an HTML response-surface report); cmd/ahs-sweep
// submits spec files from the command line. See docs/api.md.
package sweep

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"strings"

	"ahs/internal/config"
	"ahs/internal/platoon"
)

// Designs supported by Spec.Design.
const (
	DesignGrid = "grid"
	DesignLHS  = "lhs"
)

// Spec is a declarative parameter-sweep design over config.Scenario axes.
// It expands deterministically — same spec, same points, same order — so a
// sweep is as replayable as a single scenario.
type Spec struct {
	// Name labels the sweep and prefixes every generated point name.
	Name string `json:"name,omitempty"`
	// Design selects the expansion: "grid" (default) takes the cartesian
	// product of the axis levels; "lhs" crosses the explicit axes with one
	// Latin-hypercube sample of Samples points over the ranged axes.
	Design string `json:"design,omitempty"`
	// Base is the scenario every point starts from; each axis overwrites
	// one field of a copy. Fields swept by an axis may be left zero here.
	Base config.Scenario `json:"base"`
	// Axes are applied in order; their order also fixes the expansion
	// order (first axis varies slowest).
	Axes []Axis `json:"axes"`
	// Samples is the Latin-hypercube sample size (required for "lhs",
	// rejected for "grid").
	Samples int `json:"samples,omitempty"`
	// DesignSeed seeds the Latin-hypercube sampler (default 1). It is a
	// design-time seed: it chooses which points are evaluated, not how any
	// point is simulated (that is Base.Seed / the "seed" axis).
	DesignSeed uint64 `json:"designSeed,omitempty"`
	// MaxInFlight bounds how many points of this sweep are submitted to
	// the job manager at once (default engine-configured, typically 4).
	MaxInFlight int `json:"maxInFlight,omitempty"`
}

// Axis sweeps one scenario parameter. Exactly one of the level forms must
// be set: Values (numeric levels), Strings (categorical levels), or
// Min/Max (a range sampled by the Latin-hypercube design).
type Axis struct {
	// Param names the swept scenario field (docs/api.md lists them).
	Param string `json:"param"`
	// Values are explicit numeric levels, crossed grid-style.
	Values []float64 `json:"values,omitempty"`
	// Strings are explicit categorical levels (e.g. strategy codes).
	Strings []string `json:"strings,omitempty"`
	// Min/Max delimit a ranged axis, sampled only by the "lhs" design.
	Min float64 `json:"min,omitempty"`
	Max float64 `json:"max,omitempty"`
	// Scale is "linear" (default) or "log"; log-scaled ranges are sampled
	// uniformly in log space (the natural choice for failure rates λ).
	Scale string `json:"scale,omitempty"`
}

// ranged reports whether the axis is a Min/Max range rather than explicit
// levels.
func (a *Axis) ranged() bool { return len(a.Values) == 0 && len(a.Strings) == 0 }

// levels returns the number of explicit levels of a non-ranged axis.
func (a *Axis) levels() int {
	if len(a.Strings) > 0 {
		return len(a.Strings)
	}
	return len(a.Values)
}

// axisDef describes how one sweepable parameter is applied to a scenario.
type axisDef struct {
	categorical bool
	integral    bool
	set         func(sc *config.Scenario, num float64, str string)
}

// maneuverRatePrefix names per-maneuver execution-rate axes, e.g.
// "maneuverRatesPerHour.GS".
const maneuverRatePrefix = "maneuverRatesPerHour."

// axisDefs maps Axis.Param to its application; the keys match the JSON
// field names of config.Scenario.
var axisDefs = map[string]axisDef{
	"strategy":            {categorical: true, set: func(sc *config.Scenario, _ float64, s string) { sc.Strategy = s }},
	"n":                   {integral: true, set: func(sc *config.Scenario, v float64, _ string) { sc.N = int(v) }},
	"lanes":               {integral: true, set: func(sc *config.Scenario, v float64, _ string) { sc.Lanes = int(v) }},
	"batches":             {integral: true, set: func(sc *config.Scenario, v float64, _ string) { sc.Batches = uint64(v) }},
	"seed":                {integral: true, set: func(sc *config.Scenario, v float64, _ string) { sc.Seed = uint64(v) }},
	"lambdaPerHour":       {set: func(sc *config.Scenario, v float64, _ string) { sc.LambdaPerHour = v }},
	"joinRatePerHour":     {set: func(sc *config.Scenario, v float64, _ string) { sc.JoinRatePerHour = &v }},
	"leaveRatePerHour":    {set: func(sc *config.Scenario, v float64, _ string) { sc.LeaveRatePerHour = &v }},
	"changeRatePerHour":   {set: func(sc *config.Scenario, v float64, _ string) { sc.ChangeRatePerHour = &v }},
	"passThroughPerHour":  {set: func(sc *config.Scenario, v float64, _ string) { sc.PassThroughPerHour = &v }},
	"maneuverBaseFailure": {set: func(sc *config.Scenario, v float64, _ string) { sc.ManeuverBaseFailure = &v }},
	"participantFailure":  {set: func(sc *config.Scenario, v float64, _ string) { sc.ParticipantFailure = &v }},
	"degradedPenalty":     {set: func(sc *config.Scenario, v float64, _ string) { sc.DegradedPenalty = &v }},
}

// lookupAxisDef resolves an axis parameter name, including the dynamic
// "maneuverRatesPerHour.<ABBR>" family.
func lookupAxisDef(param string) (axisDef, error) {
	if def, ok := axisDefs[param]; ok {
		return def, nil
	}
	if abbr, ok := strings.CutPrefix(param, maneuverRatePrefix); ok {
		for _, m := range platoon.AllManeuvers() {
			if m.String() == abbr {
				return axisDef{set: func(sc *config.Scenario, v float64, _ string) {
					rates := make(map[string]float64, len(sc.ManeuverRatesPerHour)+1)
					for k, r := range sc.ManeuverRatesPerHour {
						rates[k] = r
					}
					rates[abbr] = v
					sc.ManeuverRatesPerHour = rates
				}}, nil
			}
		}
		return axisDef{}, fmt.Errorf("sweep: unknown maneuver %q in axis param %q", abbr, param)
	}
	return axisDef{}, fmt.Errorf("sweep: unknown axis param %q (see docs/api.md for the sweepable fields)", param)
}

// Load parses a sweep spec from JSON, rejecting unknown fields, and
// validates it.
func Load(r io.Reader) (*Spec, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var sp Spec
	if err := dec.Decode(&sp); err != nil {
		return nil, fmt.Errorf("sweep: parse spec: %w", err)
	}
	if dec.More() {
		return nil, errors.New("sweep: trailing data after spec object")
	}
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	return &sp, nil
}

// LoadFile parses a sweep spec file.
func LoadFile(path string) (*Spec, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("sweep: %w", err)
	}
	defer f.Close()
	sp, err := Load(f)
	if err != nil {
		return nil, fmt.Errorf("sweep: %s: %w", path, err)
	}
	return sp, nil
}

// Validate checks the spec's structure. Per-point scenario validity
// (parameter ranges, model constraints) is not checked here because the
// points do not exist yet; Engine.Submit validates every expanded point's
// parameters statically after expansion and rejects the sweep with
// ErrInvalidPoint before any job is created. Failures that only manifest
// at evaluation time still fail just their point, never the sweep.
func (sp *Spec) Validate() error {
	var errs []error
	design := sp.Design
	if design == "" {
		design = DesignGrid
	}
	if design != DesignGrid && design != DesignLHS {
		errs = append(errs, fmt.Errorf("sweep: unknown design %q (want %q or %q)", sp.Design, DesignGrid, DesignLHS))
	}
	if len(sp.Axes) == 0 {
		errs = append(errs, errors.New("sweep: at least one axis is required"))
	}
	seen := make(map[string]bool, len(sp.Axes))
	ranged := 0
	for i := range sp.Axes {
		a := &sp.Axes[i]
		at := func(format string, args ...any) {
			errs = append(errs, fmt.Errorf("sweep: axis %d (%s): %s", i, a.Param, fmt.Sprintf(format, args...)))
		}
		def, err := lookupAxisDef(a.Param)
		if err != nil {
			errs = append(errs, err)
			continue
		}
		if seen[a.Param] {
			at("duplicate axis")
		}
		seen[a.Param] = true
		forms := 0
		if len(a.Values) > 0 {
			forms++
		}
		if len(a.Strings) > 0 {
			forms++
		}
		if a.Min != 0 || a.Max != 0 {
			forms++
		}
		if forms != 1 {
			at("exactly one of values, strings, or min/max is required")
			continue
		}
		switch a.Scale {
		case "", "linear", "log":
		default:
			at("unknown scale %q (want linear or log)", a.Scale)
		}
		switch {
		case len(a.Strings) > 0:
			if !def.categorical {
				at("numeric parameter cannot take string levels")
			}
		case len(a.Values) > 0:
			if def.categorical {
				at("categorical parameter needs string levels")
			}
			if def.integral {
				for _, v := range a.Values {
					if v != math.Trunc(v) || v < 0 { //ahsvet:ignore floateq exact integrality check, not a tolerance comparison
						at("level %v is not a non-negative integer", v)
						break
					}
				}
			}
		default: // ranged
			ranged++
			if def.categorical {
				at("categorical parameter cannot be ranged")
			}
			if !(a.Min < a.Max) {
				at("min %v must be below max %v", a.Min, a.Max)
			}
			if a.Scale == "log" && a.Min <= 0 {
				at("log scale requires min > 0")
			}
			if design == DesignGrid {
				at("grid design cannot sample a min/max range; use the lhs design or explicit values")
			}
		}
	}
	if design == DesignLHS {
		if sp.Samples < 1 {
			errs = append(errs, errors.New("sweep: lhs design requires samples >= 1"))
		}
		if ranged == 0 && len(sp.Axes) > 0 {
			errs = append(errs, errors.New("sweep: lhs design requires at least one min/max ranged axis"))
		}
	} else if sp.Samples != 0 {
		errs = append(errs, errors.New("sweep: samples is only meaningful for the lhs design"))
	}
	if sp.MaxInFlight < 0 {
		errs = append(errs, errors.New("sweep: maxInFlight must be non-negative"))
	}
	return errors.Join(errs...)
}
