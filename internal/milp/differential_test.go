package milp

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
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
			warm, warmErr := m.Solve(Options{FirstFeasible: firstFeasible})
			cold, coldErr := m.Solve(Options{FirstFeasible: firstFeasible, coldStart: true})
			if (warmErr == nil) != (coldErr == nil) {
				t.Fatalf("trial %d ff=%v: warm err %v, cold err %v", trial, firstFeasible, warmErr, coldErr)
			}
			if warmErr != nil {
				if !errors.Is(warmErr, ErrInfeasible) || !errors.Is(coldErr, ErrInfeasible) {
					t.Fatalf("trial %d ff=%v: error mismatch: warm %v, cold %v", trial, firstFeasible, warmErr, coldErr)
				}
				infeasible++
				continue
			}
			feasible++
			if !firstFeasible && math.Abs(warm.Objective-cold.Objective) > 1e-6 {
				t.Fatalf("trial %d: objective warm %g != cold %g", trial, warm.Objective, cold.Objective)
			}
			if warm.Optimal != cold.Optimal {
				t.Fatalf("trial %d ff=%v: optimal warm %v != cold %v", trial, firstFeasible, warm.Optimal, cold.Optimal)
			}
			checkIntegral(t, m, warm.X)
			checkIntegral(t, m, cold.X)
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
		mutSol, mutErr := m.Solve(Options{FirstFeasible: true})
		freshSol, freshErr := fresh.Solve(Options{FirstFeasible: true})
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
	opts := Options{FirstFeasible: true}
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

// orderingModel is a random instance of the ordering program the schedule
// package solves: integer start slots s_l in [0, win-d_l], and per
// conflicting pair a < b an order binary o with the big-M rows
// s_b - s_a - win*o >= d_a - win and s_a - s_b + win*o >= d_b. A pair with a
// dormant endpoint (demand 0) orders nothing; pin chooses how its two rows
// say so — the pinning rows -o >= 0 and o >= 0, or all-zero rows.
type orderingModel struct {
	m     *Model
	win   float64
	start []VarID
	pairs [][2]int
	o     []VarID
	rows  [][2]int
	pin   bool
}

// newOrderingModel lays down the variables and rows; setDemand fills them in.
func newOrderingModel(t *testing.T, win int, cost []float64, pairs [][2]int, pin bool) *orderingModel {
	t.Helper()
	om := &orderingModel{m: NewModel(Minimize), win: float64(win), pairs: pairs, pin: pin}
	for l, c := range cost {
		v, err := om.m.AddVar(fmt.Sprintf("s_%d", l), Integer, om.win, c)
		if err != nil {
			t.Fatal(err)
		}
		om.start = append(om.start, v)
	}
	for _, p := range pairs {
		o, err := om.m.AddVar(fmt.Sprintf("o_%d_%d", p[0], p[1]), Binary, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		ids := []VarID{om.start[p[0]], om.start[p[1]], o}
		r1, err1 := om.m.AddConstraintIdx(ids, []float64{0, 0, 0}, GE, 0)
		r2, err2 := om.m.AddConstraintIdx(ids, []float64{0, 0, 0}, GE, 0)
		if err := errors.Join(err1, err2); err != nil {
			t.Fatal(err)
		}
		om.o = append(om.o, o)
		om.rows = append(om.rows, [2]int{r1, r2})
	}
	return om
}

// setDemand retargets the model to a demand vector by mutation only.
func (om *orderingModel) setDemand(t *testing.T, demand []int) {
	t.Helper()
	set := func(row int, ids []VarID, c [4]float64) {
		for k, v := range ids {
			if err := om.m.SetCoef(row, v, c[k]); err != nil {
				t.Fatal(err)
			}
		}
		if err := om.m.SetRHS(row, c[3]); err != nil {
			t.Fatal(err)
		}
	}
	for l, d := range demand {
		if err := om.m.SetUpper(om.start[l], om.win-float64(d)); err != nil {
			t.Fatal(err)
		}
	}
	for i, p := range om.pairs {
		da, db := float64(demand[p[0]]), float64(demand[p[1]])
		row1, row2 := [4]float64{-1, 1, -om.win, da - om.win}, [4]float64{1, -1, om.win, db}
		switch {
		case da > 0 && db > 0:
		case om.pin:
			row1, row2 = [4]float64{0, 0, -1, 0}, [4]float64{0, 0, 1, 0}
		default:
			row1, row2 = [4]float64{}, [4]float64{}
		}
		ids := []VarID{om.start[p[0]], om.start[p[1]], om.o[i]}
		set(om.rows[i][0], ids, row1)
		set(om.rows[i][1], ids, row2)
	}
}

// randomOrdering draws an instance: a window, per-link start costs, the
// conflicting pairs, and a stream of demand vectors with a random dormant
// subset each.
func randomOrdering(rng *rand.Rand, rounds int) (win int, cost []float64, pairs [][2]int, demands [][]int) {
	links := 4 + rng.Intn(6)
	win = 4 + rng.Intn(7)
	cost = make([]float64, links)
	for l := range cost {
		cost[l] = float64(rng.Intn(3))
	}
	for a := 0; a < links; a++ {
		for b := a + 1; b < links; b++ {
			if rng.Intn(2) == 0 {
				pairs = append(pairs, [2]int{a, b})
			}
		}
	}
	for r := 0; r < rounds; r++ {
		d := make([]int, links)
		for l := range d {
			if rng.Intn(3) > 0 {
				d[l] = 1 + rng.Intn(3)
			}
		}
		demands = append(demands, d)
	}
	return win, cost, pairs, demands
}

// sameSolve demands two solves agree exactly: error class, X, objective
// and optimality, and with work also the node and pivot counts.
func sameSolve(t *testing.T, what string, a, b *Solution, errA, errB error, work bool) {
	t.Helper()
	if (errA == nil) != (errB == nil) || (errA != nil && errors.Is(errA, ErrInfeasible) != errors.Is(errB, ErrInfeasible)) {
		t.Fatalf("%s: err %v vs %v", what, errA, errB)
	}
	if errA != nil {
		return
	}
	if !slices.Equal(a.X, b.X) || a.Objective != b.Objective || a.Optimal != b.Optimal {
		t.Fatalf("%s: X %v obj %g opt %v vs X %v obj %g opt %v", what, a.X, a.Objective, a.Optimal, b.X, b.Objective, b.Optimal)
	}
	if work && (a.Nodes != b.Nodes || a.Pivots != b.Pivots) {
		t.Fatalf("%s: %d nodes / %d pivots vs %d / %d", what, a.Nodes, a.Pivots, b.Nodes, b.Pivots)
	}
}

// TestDifferentialZeroRows pins the relaxation's all-zero rows to the
// pinning rows they replace: a dormant ordering pair written as two
// all-zero rows must solve exactly as the pair written as -o >= 0, o >= 0 —
// the same X, objective, nodes and pivots, because the dropped rows' slacks
// would have sat basic at zero, coupled to no live row. Both models are persistent and retargeted by
// mutation, so the dormant set changes under a recycled node state. Runs
// under -race from `make differential`.
func TestDifferentialZeroRows(t *testing.T) {
	rng := rand.New(rand.NewSource(2718))
	branched, infeasible, dormant := 0, 0, 0
	for trial := 0; trial < 40; trial++ {
		win, cost, pairs, demands := randomOrdering(rng, 6)
		pinned := newOrderingModel(t, win, cost, pairs, true)
		zeroed := newOrderingModel(t, win, cost, pairs, false)
		for r, d := range demands {
			pinned.setDemand(t, d)
			zeroed.setDemand(t, d)
			if slices.Contains(d, 0) {
				dormant++
			}
			opts := Options{FirstFeasible: rng.Intn(2) == 0, MaxNodes: 20_000}
			want, wantErr := pinned.m.Solve(opts)
			got, gotErr := zeroed.m.Solve(opts)
			sameSolve(t, fmt.Sprintf("trial %d round %d", trial, r), want, got, wantErr, gotErr, true)
			if gotErr != nil {
				infeasible++
			} else if got.Nodes > 1 {
				branched++
			}
		}
	}
	if branched < 20 || infeasible == 0 || dormant == 0 {
		t.Fatalf("weak coverage: %d branched, %d infeasible, %d rounds with dormant links", branched, infeasible, dormant)
	}

	// An unsatisfiable all-zero row makes the model infeasible; a
	// satisfiable one changes nothing.
	win, cost, pairs, demands := randomOrdering(rand.New(rand.NewSource(5)), 1)
	base := newOrderingModel(t, win, cost, pairs, false)
	base.setDemand(t, demands[0])
	want, wantErr := base.m.Solve(Options{})
	for _, c := range []struct {
		rel      Rel
		rhs      float64
		feasible bool
	}{{GE, 1, false}, {LE, -1, false}, {EQ, 2, false}, {GE, 0, true}, {LE, 0, true}, {EQ, 0, true}, {GE, -3, true}, {LE, 0.5, true}} {
		om := newOrderingModel(t, win, cost, pairs, false)
		om.setDemand(t, demands[0])
		if _, err := om.m.AddConstraintIdx([]VarID{om.start[0]}, []float64{0}, c.rel, c.rhs); err != nil {
			t.Fatal(err)
		}
		got, err := om.m.Solve(Options{})
		if !c.feasible {
			if !errors.Is(err, ErrInfeasible) {
				t.Fatalf("0 %v %g: got %v, want ErrInfeasible", c.rel, c.rhs, err)
			}
			continue
		}
		sameSolve(t, fmt.Sprintf("0 %v %g", c.rel, c.rhs), want, got, wantErr, err, true)
	}

	// A model whose rows are all zero is a box: every variable rests on the
	// bound its objective prefers, at the root.
	m := NewModel(Maximize)
	a, _ := m.AddVar("a", Binary, 1, 3)
	b, _ := m.AddVar("b", Integer, 4, -1)
	c, _ := m.AddVar("c", Integer, 5, 2)
	if _, err := m.AddConstraintIdx([]VarID{a, b, c}, []float64{0, 0, 0}, LE, 1); err != nil {
		t.Fatal(err)
	}
	if err := m.AddConstraint(map[VarID]float64{a: 0}, EQ, 0); err != nil {
		t.Fatal(err)
	}
	sol, err := m.Solve(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(sol.X, []float64{1, 0, 5}) || sol.Objective != 13 || !sol.Optimal || sol.Nodes != 1 {
		t.Fatalf("all-zero model: X %v obj %g optimal %v nodes %d, want [1 0 5] 13 true 1",
			sol.X, sol.Objective, sol.Optimal, sol.Nodes)
	}
}

// TestDifferentialRecycledState solves a stream of persistent models, each
// retargeted and re-solved many times, so every search runs on a workspace
// and snapshots recycled from the searches before it — some snapshotted
// into a State the workspace last held under an older generation. A
// recycled snapshot mistaken for the live workspace would warm-start a node
// from the wrong basis and bounds; every result must instead equal the solve
// of a fresh twin model, nodes and pivots included. Runs under -race from
// `make differential`.
func TestDifferentialRecycledState(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	branched := 0
	for trial := 0; trial < 30; trial++ {
		win, cost, pairs, demands := randomOrdering(rng, 8)
		om := newOrderingModel(t, win, cost, pairs, false)
		for r, d := range demands {
			om.setDemand(t, d)
			twin := newOrderingModel(t, win, cost, pairs, false)
			twin.setDemand(t, d)
			want, wantErr := twin.m.Solve(Options{})
			if wantErr == nil && want.Nodes > 1 {
				branched++
			}
			for rep := 0; rep < 2; rep++ {
				got, gotErr := om.m.Solve(Options{})
				sameSolve(t, fmt.Sprintf("trial %d round %d rep %d", trial, r, rep), want, got, wantErr, gotErr, true)
			}
		}
	}
	if branched < 50 {
		t.Fatalf("weak coverage: only %d branching solves", branched)
	}
}
