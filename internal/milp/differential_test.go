package milp

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// TestDifferentialWarmVsCold solves random integer programs with the default
// warm-started node relaxations (dual-simplex cleanup from the root basis)
// and with the unexported Options.coldStart, and demands matching outcomes:
// same error class, same objective, and the same optimality proof. The two modes may
// pick different vertices of tied relaxations — and therefore different
// trees and node counts — so X is compared through a brute-force check of
// the objective instead of element-wise. Runs under -race from `make
// differential`.
func TestDifferentialWarmVsCold(t *testing.T) {
	rng := rand.New(rand.NewSource(4321))
	feasible, infeasible := 0, 0
	for trial := 0; trial < 80; trial++ {
		m := randomModel(t, rng)
		for _, firstFeasible := range []bool{false, true} {
			for _, workers := range []int{1, 4} {
				warm, warmErr := m.Solve(Options{Workers: workers, FirstFeasible: firstFeasible})
				cold, coldErr := m.Solve(Options{Workers: workers, FirstFeasible: firstFeasible, coldStart: true})
				if (warmErr == nil) != (coldErr == nil) {
					t.Fatalf("trial %d ff=%v w=%d: warm err %v, cold err %v",
						trial, firstFeasible, workers, warmErr, coldErr)
				}
				if warmErr != nil {
					if !errors.Is(warmErr, ErrInfeasible) || !errors.Is(coldErr, ErrInfeasible) {
						t.Fatalf("trial %d ff=%v w=%d: error mismatch: warm %v, cold %v",
							trial, firstFeasible, workers, warmErr, coldErr)
					}
					infeasible++
					continue
				}
				feasible++
				if !firstFeasible && math.Abs(warm.Objective-cold.Objective) > 1e-6 {
					t.Fatalf("trial %d w=%d: objective warm %g != cold %g",
						trial, workers, warm.Objective, cold.Objective)
				}
				if warm.Optimal != cold.Optimal {
					t.Fatalf("trial %d ff=%v w=%d: optimal warm %v != cold %v",
						trial, firstFeasible, workers, warm.Optimal, cold.Optimal)
				}
				checkIntegral(t, m, warm.X)
				checkIntegral(t, m, cold.X)
			}
		}
	}
	if feasible == 0 || infeasible == 0 {
		t.Fatalf("weak coverage: %d feasible, %d infeasible outcomes", feasible, infeasible)
	}
}

// checkIntegral verifies a solution satisfies every row, bound, and
// integrality requirement of the model.
func checkIntegral(t *testing.T, m *Model, x []float64) {
	t.Helper()
	const tol = 1e-6
	for j, v := range m.vars {
		if x[j] < -tol || x[j] > v.upper+tol {
			t.Fatalf("x[%d] = %g outside [0, %g]", j, x[j], v.upper)
		}
		if v.typ != Continuous && math.Abs(x[j]-math.Round(x[j])) > tol {
			t.Fatalf("x[%d] = %g not integral", j, x[j])
		}
	}
	for i, r := range m.rows {
		lhs := 0.0
		for k, jj := range r.Idx {
			lhs += r.Val[k] * x[jj]
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
			t.Fatalf("row %d: %g %v %g violated by %v", i, lhs, r.Rel, r.RHS, x)
		}
	}
}

// TestDifferentialIncrementalMutation re-solves a model after SetRHS /
// SetCoef / SetUpper mutations and checks the result matches a model built
// from scratch with the mutated data — the incremental window search in
// internal/schedule depends on exactly this equivalence.
func TestDifferentialIncrementalMutation(t *testing.T) {
	build := func(win float64) (*Model, VarID, VarID, VarID, int, int) {
		m := NewModel(Minimize)
		sa, _ := m.AddVar("sa", Integer, win-1, 0)
		sb, _ := m.AddVar("sb", Integer, win-2, 0)
		o, _ := m.AddVar("o", Binary, 1, 0)
		// sb - sa - win*o >= 1 - win ; sa - sb + win*o >= 2
		r1, err := m.AddConstraintIdx([]VarID{sa, sb, o}, []float64{-1, 1, -win}, GE, 1-win)
		if err != nil {
			t.Fatal(err)
		}
		r2, err := m.AddConstraintIdx([]VarID{sa, sb, o}, []float64{1, -1, win}, GE, 2)
		if err != nil {
			t.Fatal(err)
		}
		return m, sa, sb, o, r1, r2
	}
	for win := 3.0; win <= 6; win++ {
		// Mutate a model built at window 3 up to `win`.
		m, sa, sb, o, r1, r2 := build(3)
		if win != 3 {
			if err := m.SetUpper(sa, win-1); err != nil {
				t.Fatal(err)
			}
			if err := m.SetUpper(sb, win-2); err != nil {
				t.Fatal(err)
			}
			if err := m.SetCoef(r1, o, -win); err != nil {
				t.Fatal(err)
			}
			if err := m.SetRHS(r1, 1-win); err != nil {
				t.Fatal(err)
			}
			if err := m.SetCoef(r2, o, win); err != nil {
				t.Fatal(err)
			}
		}
		fresh, _, _, _, _, _ := build(win)
		mutSol, mutErr := m.Solve(Options{FirstFeasible: true, Workers: 1})
		freshSol, freshErr := fresh.Solve(Options{FirstFeasible: true, Workers: 1})
		if (mutErr == nil) != (freshErr == nil) {
			t.Fatalf("win %g: mutated err %v, fresh err %v", win, mutErr, freshErr)
		}
		if mutErr != nil {
			continue
		}
		for j := range mutSol.X {
			if mutSol.X[j] != freshSol.X[j] {
				t.Fatalf("win %g: X[%d] mutated %g != fresh %g", win, j, mutSol.X[j], freshSol.X[j])
			}
		}
	}
}

// TestDifferentialMutationSoak hammers one persistent model with 500 rounds
// of randomized SetUpper / SetRHS / SetCoef batches, pinning every round's
// solve against a model built from scratch with the same effective data. The
// admission engine in internal/admit keeps a model alive across thousands of
// mutations, so the single-edit equivalence above has to hold over arbitrary
// mutation histories too — any drift in the persistent row/bound state shows
// up here as a verdict or solution mismatch. Runs under -race from `make
// differential`.
func TestDifferentialMutationSoak(t *testing.T) {
	type shadowVar struct {
		typ   VarType
		upper float64
		obj   float64
	}
	type shadowRow struct {
		ids   []VarID
		coefs []float64
		rel   Rel
		rhs   float64
	}
	rng := rand.New(rand.NewSource(1905))

	// Fixed structure: six variables (two binary, the rest bounded integers)
	// and five rows whose sparsity patterns never change — exactly the shape
	// of mutation the incremental scheduler performs.
	vars := []shadowVar{
		{Integer, 5, 1}, {Integer, 4, -2}, {Integer, 6, 0},
		{Integer, 3, 2}, {Binary, 1, -1}, {Binary, 1, 3},
	}
	m := NewModel(Minimize)
	for j, v := range vars {
		id, err := m.AddVar(fmt.Sprintf("x%d", j), v.typ, v.upper, v.obj)
		if err != nil {
			t.Fatal(err)
		}
		if int(id) != j {
			t.Fatalf("var %d got id %d", j, id)
		}
	}
	rows := []shadowRow{
		{[]VarID{0, 1, 4}, []float64{1, 1, -3}, GE, 1},
		{[]VarID{1, 2, 5}, []float64{-1, 2, 4}, LE, 5},
		{[]VarID{0, 2, 3}, []float64{1, -1, 1}, GE, -2},
		{[]VarID{3, 4, 5}, []float64{2, 1, 1}, LE, 6},
		{[]VarID{0, 1, 2, 3}, []float64{1, 1, 1, 1}, GE, 2},
	}
	for i, r := range rows {
		ri, err := m.AddConstraintIdx(r.ids, r.coefs, r.rel, r.rhs)
		if err != nil {
			t.Fatal(err)
		}
		if ri != i {
			t.Fatalf("row %d got index %d", i, ri)
		}
	}

	rounds := 500
	if testing.Short() {
		rounds = 100
	}
	opts := Options{FirstFeasible: true, Workers: 1}
	feasible, infeasible := 0, 0
	for round := 0; round < rounds; round++ {
		// Each round applies a random batch of 1-4 mutations to both the
		// persistent model and the shadow data.
		for k := 0; k < 1+rng.Intn(4); k++ {
			switch rng.Intn(3) {
			case 0: // SetUpper on a non-binary variable.
				j := rng.Intn(4)
				up := float64(rng.Intn(8))
				if err := m.SetUpper(VarID(j), up); err != nil {
					t.Fatalf("round %d: SetUpper: %v", round, err)
				}
				vars[j].upper = up
			case 1: // SetRHS on any row.
				i := rng.Intn(len(rows))
				rhs := float64(rng.Intn(17) - 8)
				if err := m.SetRHS(i, rhs); err != nil {
					t.Fatalf("round %d: SetRHS: %v", round, err)
				}
				rows[i].rhs = rhs
			case 2: // SetCoef on an existing sparsity entry.
				i := rng.Intn(len(rows))
				k := rng.Intn(len(rows[i].ids))
				c := float64(rng.Intn(9) - 4)
				if c == 0 {
					c = 1
				}
				if err := m.SetCoef(i, rows[i].ids[k], c); err != nil {
					t.Fatalf("round %d: SetCoef: %v", round, err)
				}
				rows[i].coefs[k] = c
			}
		}
		// Oracle: a model built from scratch with the current shadow data.
		fresh := NewModel(Minimize)
		for j, v := range vars {
			if _, err := fresh.AddVar(fmt.Sprintf("x%d", j), v.typ, v.upper, v.obj); err != nil {
				t.Fatal(err)
			}
		}
		for _, r := range rows {
			if _, err := fresh.AddConstraintIdx(r.ids, r.coefs, r.rel, r.rhs); err != nil {
				t.Fatal(err)
			}
		}
		mutSol, mutErr := m.Solve(opts)
		freshSol, freshErr := fresh.Solve(opts)
		if (mutErr == nil) != (freshErr == nil) {
			t.Fatalf("round %d: mutated err %v, fresh err %v", round, mutErr, freshErr)
		}
		if mutErr != nil {
			if !errors.Is(mutErr, ErrInfeasible) || !errors.Is(freshErr, ErrInfeasible) {
				t.Fatalf("round %d: error class mismatch: mutated %v, fresh %v", round, mutErr, freshErr)
			}
			infeasible++
			continue
		}
		feasible++
		for j := range mutSol.X {
			if mutSol.X[j] != freshSol.X[j] {
				t.Fatalf("round %d: X[%d] mutated %g != fresh %g", round, j, mutSol.X[j], freshSol.X[j])
			}
		}
		checkIntegral(t, fresh, mutSol.X)
	}
	if feasible == 0 || infeasible == 0 {
		t.Fatalf("weak coverage: %d feasible, %d infeasible rounds", feasible, infeasible)
	}
}
