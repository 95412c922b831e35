package sweep

import (
	"strings"
	"testing"

	"ahs/internal/config"
)

// baseScenario is the tiny fast scenario sweep tests expand around.
func baseScenario() config.Scenario {
	return config.Scenario{
		N:             2,
		LambdaPerHour: 0.01,
		TripHours:     []float64{0.5, 1},
		Batches:       200,
		Seed:          9,
	}
}

func TestLoadRejectsUnknownFieldsAndTrailingData(t *testing.T) {
	if _, err := Load(strings.NewReader(`{"axes":[{"param":"strategy","strings":["DD"]}],"bogus":1}`)); err == nil {
		t.Fatal("unknown field accepted")
	}
	if _, err := Load(strings.NewReader(`{"axes":[{"param":"strategy","strings":["DD"]}]} {"x":1}`)); err == nil {
		t.Fatal("trailing data accepted")
	}
	sp, err := Load(strings.NewReader(`{"name":"ok","axes":[{"param":"strategy","strings":["DD","DC"]}]}`))
	if err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	if sp.Name != "ok" || len(sp.Axes) != 1 {
		t.Fatalf("spec parsed wrong: %+v", sp)
	}
}

func TestValidateRejections(t *testing.T) {
	valid := func() *Spec {
		return &Spec{Base: baseScenario(), Axes: []Axis{{Param: "lambdaPerHour", Values: []float64{0.01, 0.02}}}}
	}
	cases := []struct {
		name    string
		mutate  func(*Spec)
		wantSub string
	}{
		{"unknown design", func(sp *Spec) { sp.Design = "sobol" }, "unknown design"},
		{"no axes", func(sp *Spec) { sp.Axes = nil }, "at least one axis"},
		{"unknown param", func(sp *Spec) { sp.Axes[0].Param = "warpFactor" }, "unknown axis param"},
		{"unknown maneuver", func(sp *Spec) { sp.Axes[0].Param = "maneuverRatesPerHour.ZZ" }, "unknown maneuver"},
		{"duplicate axis", func(sp *Spec) { sp.Axes = append(sp.Axes, sp.Axes[0]) }, "duplicate axis"},
		{"no level form", func(sp *Spec) { sp.Axes[0].Values = nil }, "exactly one of"},
		{"two level forms", func(sp *Spec) { sp.Axes[0].Min, sp.Axes[0].Max = 1, 2 }, "exactly one of"},
		{"bad scale", func(sp *Spec) { sp.Axes[0].Scale = "cubic" }, "unknown scale"},
		{"strings on numeric", func(sp *Spec) {
			sp.Axes[0].Values = nil
			sp.Axes[0].Strings = []string{"a"}
		}, "cannot take string levels"},
		{"values on categorical", func(sp *Spec) { sp.Axes[0].Param = "strategy" }, "needs string levels"},
		{"fractional integral level", func(sp *Spec) {
			sp.Axes[0] = Axis{Param: "n", Values: []float64{2, 2.5}}
		}, "not a non-negative integer"},
		{"negative integral level", func(sp *Spec) {
			sp.Axes[0] = Axis{Param: "n", Values: []float64{-2}}
		}, "not a non-negative integer"},
		{"ranged categorical", func(sp *Spec) {
			sp.Design, sp.Samples = DesignLHS, 2
			sp.Axes[0] = Axis{Param: "strategy", Min: 1, Max: 2}
		}, "cannot be ranged"},
		{"inverted range", func(sp *Spec) {
			sp.Design, sp.Samples = DesignLHS, 2
			sp.Axes[0] = Axis{Param: "lambdaPerHour", Min: 3, Max: 2}
		}, "must be below"},
		{"log range at zero", func(sp *Spec) {
			sp.Design, sp.Samples = DesignLHS, 2
			sp.Axes[0] = Axis{Param: "lambdaPerHour", Min: 0, Max: 2, Scale: "log"}
		}, "log scale requires min > 0"},
		{"grid with range", func(sp *Spec) {
			sp.Axes[0] = Axis{Param: "lambdaPerHour", Min: 1, Max: 2}
		}, "grid design cannot sample"},
		{"lhs without samples", func(sp *Spec) {
			sp.Design = DesignLHS
			sp.Axes[0] = Axis{Param: "lambdaPerHour", Min: 1, Max: 2}
		}, "requires samples"},
		{"lhs without ranged axis", func(sp *Spec) { sp.Design, sp.Samples = DesignLHS, 2 }, "ranged axis"},
		{"samples on grid", func(sp *Spec) { sp.Samples = 3 }, "only meaningful for the lhs"},
		{"negative maxInFlight", func(sp *Spec) { sp.MaxInFlight = -1 }, "maxInFlight"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sp := valid()
			tc.mutate(sp)
			err := sp.Validate()
			if err == nil {
				t.Fatalf("invalid spec accepted: %+v", sp)
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("error %q does not mention %q", err, tc.wantSub)
			}
		})
	}
	if err := valid().Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
}

func TestValidateAcceptsManeuverRateAxis(t *testing.T) {
	sp := &Spec{Base: baseScenario(), Axes: []Axis{
		{Param: "maneuverRatesPerHour.GS", Values: []float64{10, 20}},
	}}
	if err := sp.Validate(); err != nil {
		t.Fatalf("maneuver-rate axis rejected: %v", err)
	}
}
