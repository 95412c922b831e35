package core

import (
	"math"
	"testing"
)

func TestSensitivityTableLambdaElasticity(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy Monte-Carlo statistical check; skipped under -short (race CI)")
	}
	// With two-failure catastrophes dominating, S ∝ λ², so the lambda
	// elasticity must be close to 2.
	p := DefaultParams()
	p.Lambda = 1e-4
	rows, err := SensitivityTable(p, 6, EvalOptions{Seed: 43, MaxBatches: 12000}, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]Sensitivity{}
	for _, r := range rows {
		byName[r.Parameter] = r
	}
	lam, ok := byName["lambda"]
	if !ok {
		t.Fatalf("missing lambda row in %v", rows)
	}
	if lam.SLow >= lam.SHigh {
		t.Fatalf("unsafety not increasing in lambda: %+v", lam)
	}
	if math.Abs(lam.Elasticity-2) > 0.5 {
		t.Fatalf("lambda elasticity %v, want ~2", lam.Elasticity)
	}
	// All six positive parameters are present.
	if len(rows) != 6 {
		t.Fatalf("expected 6 sensitivity rows, got %d", len(rows))
	}
}

func TestSensitivityTableSkipsZeroParams(t *testing.T) {
	p := DefaultParams()
	p.Lambda = 1e-3
	p.ChangeRate = 0
	rows, err := SensitivityTable(p, 2, EvalOptions{Seed: 44, MaxBatches: 500}, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Parameter == "change_rate" {
			t.Fatal("zero parameter must be skipped")
		}
	}
}

func TestSensitivityTableValidation(t *testing.T) {
	p := DefaultParams()
	if _, err := SensitivityTable(p, 2, EvalOptions{MaxBatches: 10}, 0); err == nil {
		t.Fatal("expected error for zero rel")
	}
	if _, err := SensitivityTable(p, 2, EvalOptions{MaxBatches: 10}, 1); err == nil {
		t.Fatal("expected error for rel >= 1")
	}
	p.N = 0
	if _, err := SensitivityTable(p, 2, EvalOptions{MaxBatches: 10}, 0.2); err == nil {
		t.Fatal("expected invalid-params error")
	}
}
