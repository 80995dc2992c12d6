package lp

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func approx(a, b float64) bool { return math.Abs(a-b) < 1e-6 }

// solve compiles p and cold-solves it on a fresh workspace.
func solve(p *Problem) (*Solution, error) {
	c, err := Compile(p)
	if err != nil {
		return nil, err
	}
	return NewSolver().Solve(c, nil, nil)
}

func TestMaximizeSimple2D(t *testing.T) {
	// max 3x + 2y s.t. x + y <= 4, x + 3y <= 6 -> x=4, y=0, obj=12.
	p := NewProblem(Maximize, 2)
	if err := p.SetObjCoef(0, 3); err != nil {
		t.Fatal(err)
	}
	if err := p.SetObjCoef(1, 2); err != nil {
		t.Fatal(err)
	}
	if err := p.AddConstraint(map[int]float64{0: 1, 1: 1}, LE, 4); err != nil {
		t.Fatal(err)
	}
	if err := p.AddConstraint(map[int]float64{0: 1, 1: 3}, LE, 6); err != nil {
		t.Fatal(err)
	}
	s, err := solve(p)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if !approx(s.Objective, 12) {
		t.Errorf("objective = %g, want 12", s.Objective)
	}
	if !approx(s.X[0], 4) || !approx(s.X[1], 0) {
		t.Errorf("x = %v, want [4 0]", s.X)
	}
}

func TestMinimizeWithGE(t *testing.T) {
	// min 2x + 3y s.t. x + y >= 10, x <= 6 -> x=6, y=4, obj=24.
	p := NewProblem(Minimize, 2)
	if err := p.SetObjCoef(0, 2); err != nil {
		t.Fatal(err)
	}
	if err := p.SetObjCoef(1, 3); err != nil {
		t.Fatal(err)
	}
	if err := p.AddConstraint(map[int]float64{0: 1, 1: 1}, GE, 10); err != nil {
		t.Fatal(err)
	}
	if err := p.SetUpper(0, 6); err != nil {
		t.Fatal(err)
	}
	s, err := solve(p)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if !approx(s.Objective, 24) {
		t.Errorf("objective = %g, want 24", s.Objective)
	}
}

func TestEqualityConstraint(t *testing.T) {
	// min x + y s.t. x + 2y = 4, x >= 0, y >= 0 -> y=2, x=0, obj=2.
	p := NewProblem(Minimize, 2)
	if err := p.SetObjCoef(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := p.SetObjCoef(1, 1); err != nil {
		t.Fatal(err)
	}
	if err := p.AddConstraint(map[int]float64{0: 1, 1: 2}, EQ, 4); err != nil {
		t.Fatal(err)
	}
	s, err := solve(p)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if !approx(s.Objective, 2) {
		t.Errorf("objective = %g, want 2", s.Objective)
	}
	if !approx(s.X[0]+2*s.X[1], 4) {
		t.Errorf("equality violated: x=%v", s.X)
	}
}

func TestInfeasible(t *testing.T) {
	// x <= 1 and x >= 2.
	p := NewProblem(Minimize, 1)
	if err := p.AddConstraint(map[int]float64{0: 1}, LE, 1); err != nil {
		t.Fatal(err)
	}
	if err := p.AddConstraint(map[int]float64{0: 1}, GE, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := solve(p); !errors.Is(err, ErrInfeasible) {
		t.Errorf("got %v, want ErrInfeasible", err)
	}
}

func TestUnbounded(t *testing.T) {
	// max x with no constraints.
	p := NewProblem(Maximize, 1)
	if err := p.SetObjCoef(0, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := solve(p); !errors.Is(err, ErrUnbounded) {
		t.Errorf("got %v, want ErrUnbounded", err)
	}
}

func TestNegativeRHS(t *testing.T) {
	// min x s.t. -x <= -3 (i.e. x >= 3).
	p := NewProblem(Minimize, 1)
	if err := p.SetObjCoef(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := p.AddConstraint(map[int]float64{0: -1}, LE, -3); err != nil {
		t.Fatal(err)
	}
	s, err := solve(p)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if !approx(s.X[0], 3) {
		t.Errorf("x = %g, want 3", s.X[0])
	}
}

func TestUpperBounds(t *testing.T) {
	// max x + y, x <= 0.5, y <= 0.25 via bounds.
	p := NewProblem(Maximize, 2)
	if err := p.SetObjCoef(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := p.SetObjCoef(1, 1); err != nil {
		t.Fatal(err)
	}
	if err := p.SetUpper(0, 0.5); err != nil {
		t.Fatal(err)
	}
	if err := p.SetUpper(1, 0.25); err != nil {
		t.Fatal(err)
	}
	s, err := solve(p)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if !approx(s.Objective, 0.75) {
		t.Errorf("objective = %g, want 0.75", s.Objective)
	}
}

func TestDegenerateKleeMintyLike(t *testing.T) {
	// A small Klee-Minty cube: pathological for Dantzig pricing but must
	// still terminate (Bland fallback).
	n := 6
	p := NewProblem(Maximize, n)
	for j := 0; j < n; j++ {
		if err := p.SetObjCoef(j, math.Pow(2, float64(n-1-j))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		coef := map[int]float64{i: 1}
		for j := 0; j < i; j++ {
			coef[j] = math.Pow(2, float64(i-j+1))
		}
		if err := p.AddConstraint(coef, LE, math.Pow(5, float64(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	s, err := solve(p)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	want := math.Pow(5, float64(n))
	if !approx(s.Objective/want, 1) {
		t.Errorf("objective = %g, want %g", s.Objective, want)
	}
}

func TestRedundantEqualityRows(t *testing.T) {
	// Duplicate equality rows must not break phase 1.
	p := NewProblem(Minimize, 2)
	if err := p.SetObjCoef(0, 1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := p.AddConstraint(map[int]float64{0: 1, 1: 1}, EQ, 5); err != nil {
			t.Fatal(err)
		}
	}
	s, err := solve(p)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if !approx(s.X[0]+s.X[1], 5) {
		t.Errorf("x = %v violates x0+x1=5", s.X)
	}
	if !approx(s.Objective, 0) {
		t.Errorf("objective = %g, want 0", s.Objective)
	}
}

func TestValidationErrors(t *testing.T) {
	p := NewProblem(Minimize, 1)
	if err := p.SetObjCoef(2, 1); err == nil {
		t.Error("SetObjCoef out of range accepted")
	}
	if err := p.SetUpper(0, -1); err == nil {
		t.Error("negative upper bound accepted")
	}
	if err := p.AddConstraint(map[int]float64{5: 1}, LE, 0); err == nil {
		t.Error("constraint with out-of-range variable accepted")
	}
	if err := p.AddConstraint(map[int]float64{0: 1}, Rel(0), 0); err == nil {
		t.Error("bad relation accepted")
	}
}

// Property: for random feasible bounded problems (box constraints plus a
// budget row), the solution respects all constraints and is at least as good
// as any random feasible point we can construct.
func TestPropertySolutionFeasibleAndDominant(t *testing.T) {
	prop := func(c0, c1, c2 uint8) bool {
		obj := []float64{float64(c0%10) + 1, float64(c1%10) + 1, float64(c2%10) + 1}
		p := NewProblem(Maximize, 3)
		for j, v := range obj {
			if err := p.SetObjCoef(j, v); err != nil {
				return false
			}
			if err := p.SetUpper(j, 2); err != nil {
				return false
			}
		}
		if err := p.AddConstraint(map[int]float64{0: 1, 1: 1, 2: 1}, LE, 3); err != nil {
			return false
		}
		s, err := solve(p)
		if err != nil {
			return false
		}
		sum := 0.0
		for _, v := range s.X {
			if v < -1e-9 || v > 2+1e-9 {
				return false
			}
			sum += v
		}
		if sum > 3+1e-9 {
			return false
		}
		// The feasible point (1,1,1) must not beat the optimum.
		base := obj[0] + obj[1] + obj[2]
		return s.Objective >= base-1e-6
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
