package milp

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
)

// randomModel builds a random bounded integer program: binary and small
// integer variables, mixed-relation constraints. Deterministic for a seed.
func randomModel(t *testing.T, rng *rand.Rand) *Model {
	t.Helper()
	sense := Minimize
	if rng.Intn(2) == 1 {
		sense = Maximize
	}
	m := NewModel(sense)
	nVars := 3 + rng.Intn(5)
	vars := make([]VarID, nVars)
	for j := 0; j < nVars; j++ {
		typ := Binary
		upper := 1.0
		if rng.Intn(3) == 0 {
			typ = Integer
			upper = float64(2 + rng.Intn(4))
		}
		v, err := m.AddVar(fmt.Sprintf("x%d", j), typ, upper, float64(rng.Intn(11)-5))
		if err != nil {
			t.Fatalf("add var: %v", err)
		}
		vars[j] = v
	}
	nCons := 2 + rng.Intn(5)
	for i := 0; i < nCons; i++ {
		coef := make(map[VarID]float64)
		for _, v := range vars {
			if rng.Intn(2) == 0 {
				coef[v] = float64(rng.Intn(7) - 3)
			}
		}
		rel := []Rel{LE, GE, EQ}[rng.Intn(3)]
		rhs := float64(rng.Intn(9) - 2)
		if err := m.AddConstraint(coef, rel, rhs); err != nil {
			t.Fatalf("add constraint: %v", err)
		}
	}
	return m
}

// TestParallelMatchesSequential solves a batch of random integer programs
// with one worker and with several, and demands identical outcomes: same
// error class, and bit-identical solution vectors and objectives (ties are
// broken by branch path, so the parallel search must land on the exact
// incumbent of the sequential search).
func TestParallelMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	feasible, infeasible := 0, 0
	for trial := 0; trial < 60; trial++ {
		m := randomModel(t, rng)
		for _, firstFeasible := range []bool{false, true} {
			seq, seqErr := m.Solve(Options{Workers: 1, FirstFeasible: firstFeasible})
			par, parErr := m.Solve(Options{Workers: 4, FirstFeasible: firstFeasible})
			if (seqErr == nil) != (parErr == nil) {
				t.Fatalf("trial %d ff=%v: seq err %v, par err %v", trial, firstFeasible, seqErr, parErr)
			}
			if seqErr != nil {
				if !errors.Is(parErr, ErrInfeasible) || !errors.Is(seqErr, ErrInfeasible) {
					t.Fatalf("trial %d ff=%v: error mismatch: seq %v, par %v", trial, firstFeasible, seqErr, parErr)
				}
				infeasible++
				continue
			}
			feasible++
			if seq.Objective != par.Objective {
				t.Fatalf("trial %d ff=%v: objective seq %g != par %g", trial, firstFeasible, seq.Objective, par.Objective)
			}
			if seq.Optimal != par.Optimal {
				t.Fatalf("trial %d ff=%v: optimal seq %v != par %v", trial, firstFeasible, seq.Optimal, par.Optimal)
			}
			if len(seq.X) != len(par.X) {
				t.Fatalf("trial %d ff=%v: len(X) %d != %d", trial, firstFeasible, len(seq.X), len(par.X))
			}
			for j := range seq.X {
				if seq.X[j] != par.X[j] {
					t.Fatalf("trial %d ff=%v: X[%d] seq %g != par %g\nseq %v\npar %v",
						trial, firstFeasible, j, seq.X[j], par.X[j], seq.X, par.X)
				}
			}
		}
	}
	if feasible == 0 || infeasible == 0 {
		t.Fatalf("weak coverage: %d feasible, %d infeasible outcomes", feasible, infeasible)
	}
}

// TestSolveRepeatable checks a single model solved repeatedly with many
// workers always returns the same solution (no schedule-dependent drift).
func TestSolveRepeatable(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	var m *Model
	var ref *Solution
	for {
		m = randomModel(t, rng)
		sol, err := m.Solve(Options{Workers: 1})
		if err == nil && sol.Nodes > 3 {
			ref = sol
			break
		}
	}
	for i := 0; i < 20; i++ {
		sol, err := m.Solve(Options{Workers: 8})
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		for j := range ref.X {
			if sol.X[j] != ref.X[j] {
				t.Fatalf("run %d: X[%d] = %g, want %g", i, j, sol.X[j], ref.X[j])
			}
		}
		if sol.Objective != ref.Objective {
			t.Fatalf("run %d: objective %g, want %g", i, sol.Objective, ref.Objective)
		}
	}
}

// TestWorkersDefault checks Workers=0 resolves to a working default.
func TestWorkersDefault(t *testing.T) {
	m := NewModel(Maximize)
	a, _ := m.AddVar("a", Binary, 1, 3)
	b, _ := m.AddVar("b", Binary, 1, 2)
	if err := m.AddConstraint(map[VarID]float64{a: 1, b: 1}, LE, 1); err != nil {
		t.Fatal(err)
	}
	sol, err := m.Solve(Options{})
	if err != nil {
		t.Fatalf("solve: %v", err)
	}
	if sol.Objective != 3 {
		t.Fatalf("objective = %g, want 3", sol.Objective)
	}
}

// TestDifferentialRecycledState solves a stream of persistent models at four
// workers, each retargeted and re-solved many times, so every search runs on
// workspaces and snapshots recycled from the searches before it — some
// snapshotted by another goroutine into a State a worker last held under an
// older generation. A recycled snapshot mistaken for the live workspace
// would warm-start a node from the wrong basis and bounds; every result must
// instead equal a one-worker solve of a fresh twin model. Runs under -race
// from `make differential`.
func TestDifferentialRecycledState(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	branched := 0
	for trial := 0; trial < 30; trial++ {
		win, cost, pairs, demands := randomOrdering(rng, 8)
		par := newOrderingModel(t, win, cost, pairs, false)
		for r, d := range demands {
			par.setDemand(t, d)
			twin := newOrderingModel(t, win, cost, pairs, false)
			twin.setDemand(t, d)
			want, wantErr := twin.m.Solve(Options{Workers: 1})
			if wantErr == nil && want.Nodes > 1 {
				branched++
			}
			for rep := 0; rep < 2; rep++ {
				got, gotErr := par.m.Solve(Options{Workers: 4})
				sameSolve(t, fmt.Sprintf("trial %d round %d rep %d", trial, r, rep), want, got, wantErr, gotErr, false)
			}
		}
	}
	if branched < 50 {
		t.Fatalf("weak coverage: only %d branching solves", branched)
	}
}
