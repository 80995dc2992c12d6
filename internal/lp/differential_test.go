package lp

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// classify folds solver outcomes into comparable classes.
func classify(err error) string {
	switch {
	case err == nil:
		return "optimal"
	case errors.Is(err, ErrInfeasible):
		return "infeasible"
	case errors.Is(err, ErrUnbounded):
		return "unbounded"
	case errors.Is(err, ErrIterLimit):
		return "iterlimit"
	default:
		return "error"
	}
}

// checkFeasible verifies x against the problem's rows and bounds.
func checkFeasible(t *testing.T, p *Problem, x []float64) {
	t.Helper()
	const tol = 1e-6
	for j := 0; j < p.NumVars(); j++ {
		if x[j] < p.lower[j]-tol || x[j] > p.upper[j]+tol {
			t.Fatalf("x[%d] = %g outside bounds [%g, %g]", j, x[j], p.lower[j], p.upper[j])
		}
	}
	for i, r := range p.rows {
		lhs := 0.0
		for k, j := range r.Idx {
			lhs += r.Val[k] * x[j]
		}
		bad := false
		switch r.Rel {
		case LE:
			bad = lhs > r.RHS+tol
		case GE:
			bad = lhs < r.RHS-tol
		case EQ:
			bad = math.Abs(lhs-r.RHS) > tol
		}
		if bad {
			t.Fatalf("row %d: %g %v %g violated", i, lhs, r.Rel, r.RHS)
		}
	}
}

// randomLP generates a small LP with integer-ish data: random sense, sparse
// rows of all three relations, occasional finite upper bounds (to exercise
// at-upper-bound optima), occasional duplicated rows (degeneracy/redundancy).
func randomLP(rng *rand.Rand) *Problem {
	n := 1 + rng.Intn(7)
	sense := Minimize
	if rng.Intn(2) == 1 {
		sense = Maximize
	}
	p := NewProblem(sense, n)
	for j := 0; j < n; j++ {
		if rng.Intn(4) > 0 {
			p.SetObjCoef(j, float64(rng.Intn(11)-5))
		}
		if rng.Intn(5) < 2 {
			p.SetUpper(j, float64(rng.Intn(17))/2)
		}
	}
	m := rng.Intn(9)
	var prev Row
	for i := 0; i < m; i++ {
		if len(prev.Idx) > 0 && rng.Intn(5) == 0 {
			// Duplicate the previous row, sometimes with a new RHS: covers
			// degenerate and redundant (or inconsistent) row handling.
			rhs := prev.RHS
			if rng.Intn(2) == 0 {
				rhs = float64(rng.Intn(23) - 10)
			}
			p.addRow(Row{Idx: prev.Idx, Val: prev.Val, Rel: prev.Rel, RHS: rhs})
			continue
		}
		var idx []int32
		var val []float64
		for j := 0; j < n; j++ {
			if rng.Intn(5) < 3 {
				if v := rng.Intn(7) - 3; v != 0 {
					idx = append(idx, int32(j))
					val = append(val, float64(v))
				}
			}
		}
		if len(idx) == 0 {
			continue
		}
		rel := []Rel{LE, GE, EQ}[rng.Intn(3)]
		r := Row{Idx: idx, Val: val, Rel: rel, RHS: float64(rng.Intn(23) - 10)}
		if err := p.addRow(r); err != nil {
			panic(err)
		}
		prev = r
	}
	return p
}

// TestDifferentialSimplexVsReference pins the bounded-variable dual simplex
// against the pre-overhaul dense two-phase solver on randomized LPs covering
// degenerate, infeasible, unbounded, and at-upper-bound optima.
func TestDifferentialSimplexVsReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	counts := map[string]int{}
	for iter := 0; iter < 1500; iter++ {
		p := randomLP(rng)
		got, gerr := solve(p)
		want, werr := refSolve(p)
		gc, wc := classify(gerr), classify(werr)
		if gc == "iterlimit" || wc == "iterlimit" {
			continue
		}
		counts[wc]++
		if gc != wc {
			t.Fatalf("case %d: new solver %s (%v), reference %s (%v)", iter, gc, gerr, wc, werr)
		}
		if gerr != nil {
			continue
		}
		scale := 1 + math.Abs(want.Objective)
		if math.Abs(got.Objective-want.Objective) > 1e-6*scale {
			t.Fatalf("case %d: objective %g, reference %g", iter, got.Objective, want.Objective)
		}
		checkFeasible(t, p, got.X)
	}
	for _, class := range []string{"optimal", "infeasible", "unbounded"} {
		if counts[class] == 0 {
			t.Fatalf("generator never produced a %s case: %v", class, counts)
		}
	}
}

// TestDifferentialWarmStart pins the warm path (Snapshot + bound-tightening
// + dual cleanup) against a cold solve of the identically-tightened problem,
// for both solvers where applicable. This is the branch-and-bound re-solve
// pattern.
func TestDifferentialWarmStart(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := NewSolver()
	warmed := 0
	for iter := 0; iter < 1500; iter++ {
		p := randomLP(rng)
		c, err := Compile(p)
		if err != nil {
			t.Fatalf("case %d: compile: %v", iter, err)
		}
		root, err := s.Solve(c, nil, nil)
		if err != nil {
			continue // warm starts only exist below a solved root
		}
		st := s.Snapshot(nil)
		j := rng.Intn(p.NumVars())
		upper := rng.Intn(2) == 0
		val := math.Floor(root.X[j])
		if !upper {
			val = math.Ceil(root.X[j] + float64(rng.Intn(3)))
		}
		warm, warmErr := s.Solve(c, st, []BoundChange{{Col: int32(j), Upper: upper, Val: val}})

		p2 := NewProblemShared(p.sense, p.obj, slices.Clone(p.lower), slices.Clone(p.upper), p.rows)
		if upper {
			if val < 0 {
				// Mirrors a branch emptying the [0, u] box.
				if !errors.Is(warmErr, ErrInfeasible) {
					t.Fatalf("case %d: empty box gave %v, want ErrInfeasible", iter, warmErr)
				}
				continue
			}
			p2.upper[j] = min(p2.upper[j], val)
		} else {
			p2.lower[j] = max(p2.lower[j], val)
		}
		c2, err := Compile(p2)
		if err != nil {
			if !errors.Is(err, ErrInfeasible) || !errors.Is(warmErr, ErrInfeasible) {
				t.Fatalf("case %d: compile tightened: %v (warm %v)", iter, err, warmErr)
			}
			continue
		}
		cold, coldErr := NewSolver().Solve(c2, nil, nil)
		if classify(warmErr) != classify(coldErr) {
			t.Fatalf("case %d: warm %s (%v), cold %s (%v)",
				iter, classify(warmErr), warmErr, classify(coldErr), coldErr)
		}
		if warmErr != nil {
			continue
		}
		warmed++
		scale := 1 + math.Abs(cold.Objective)
		if math.Abs(warm.Objective-cold.Objective) > 1e-6*scale {
			t.Fatalf("case %d: warm objective %g, cold %g", iter, warm.Objective, cold.Objective)
		}
		checkFeasible(t, p2, warm.X)
		// The reference solver only models zero lower bounds.
		if upper {
			ref, refErr := refSolve(p2)
			if classify(refErr) != "optimal" {
				t.Fatalf("case %d: reference on tightened problem: %v", iter, refErr)
			}
			if math.Abs(warm.Objective-ref.Objective) > 1e-6*(1+math.Abs(ref.Objective)) {
				t.Fatalf("case %d: warm objective %g, reference %g", iter, warm.Objective, ref.Objective)
			}
		}
	}
	if warmed < 100 {
		t.Fatalf("only %d warm re-solves exercised", warmed)
	}
}

// TestSnapshotRecycled: a Solver warm-starting from the State it just
// snapshotted continues from its live workspace, but once another Solver has
// snapshotted into that State again it must restore the new contents.
func TestSnapshotRecycled(t *testing.T) {
	// max x0 + x1, x0 + 2 x1 <= 4, x in [0, 3]^2: the root rests at x0 = 3.
	p := NewProblem(Maximize, 2)
	for j := 0; j < 2; j++ {
		if err := errors.Join(p.SetObjCoef(j, 1), p.SetUpper(j, 3)); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.AddConstraint(map[int]float64{0: 1, 1: 2}, LE, 4); err != nil {
		t.Fatal(err)
	}
	c, err := Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	a, b := NewSolver(), NewSolver()
	if _, err := a.Solve(c, nil, nil); err != nil {
		t.Fatal(err)
	}
	st := a.Snapshot(nil)
	if _, err := b.Solve(c, st, []BoundChange{{Col: 0, Upper: true, Val: 1}}); err != nil {
		t.Fatal(err)
	}
	b.Snapshot(st) // st is now b's basis under x0 <= 1
	got, err := a.Solve(c, st, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := NewSolver().Solve(c, st, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got.X, want.X) || got.X[0] != 1 {
		t.Fatalf("warm start from a recycled State: x = %v, want %v", got.X, want.X)
	}
}
