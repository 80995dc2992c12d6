package lp

import (
	"errors"
	"fmt"
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

// orderingLP is the LP relaxation of a seeded TDMA ordering model: a start
// per link in [0, win-demand], and per conflicting pair an order binary and
// two big-M rows. B^-1 of such a basis stays a few percent full.
func orderingLP(rng *rand.Rand) *Problem {
	links, win := 10+rng.Intn(8), float64(6+rng.Intn(10))
	var pairs [][2]int
	for a := 0; a < links; a++ {
		for b := a + 1; b < links; b++ {
			if rng.Intn(2) == 0 {
				pairs = append(pairs, [2]int{a, b})
			}
		}
	}
	p := NewProblem(Minimize, links+len(pairs))
	demand := make([]float64, links)
	for l := range demand {
		demand[l] = float64(1 + rng.Intn(3))
		p.obj[l], p.upper[l] = float64(rng.Intn(3)), win-demand[l]
	}
	for i, pr := range pairs {
		a, b, o := int32(pr[0]), int32(pr[1]), int32(links+i)
		p.upper[o] = 1
		p.rows = append(p.rows,
			Row{Idx: []int32{a, b, o}, Val: []float64{-1, 1, -win}, Rel: GE, RHS: demand[a] - win},
			Row{Idx: []int32{a, b, o}, Val: []float64{1, -1, win}, Rel: GE, RHS: demand[b]})
	}
	return p
}

// probeLP is the benchmark's LP probe at a seeded size: a quarter of every
// <= row non-zero, coefficients in [1, 2), every variable in [0, 10].
func probeLP(rng *rand.Rand) *Problem {
	n, m := 30+rng.Intn(40), 20+rng.Intn(40)
	p := NewProblem(Maximize, n)
	for j := 0; j < n; j++ {
		p.obj[j], p.upper[j] = 1+rng.Float64(), 10
	}
	for i := 0; i < m; i++ {
		var r Row
		for j := 0; j < n; j++ {
			if rng.Intn(4) == 0 {
				r.Idx, r.Val = append(r.Idx, int32(j)), append(r.Val, 1+rng.Float64())
			}
		}
		r.Rel, r.RHS = LE, 20+20*rng.Float64()
		p.rows = append(p.rows, r)
	}
	return p
}

// mixedLP has sparse rows of all three relations, right-hand sides that a
// seeded point satisfies, free columns (some with a cost) and boxed ones.
func mixedLP(rng *rand.Rand) *Problem {
	n, m := 20+rng.Intn(40), 15+rng.Intn(60)
	sense := Minimize
	if rng.Intn(2) == 0 {
		sense = Maximize
	}
	p := NewProblem(sense, n)
	x0 := make([]float64, n)
	for j := 0; j < n; j++ {
		if rng.Intn(3) > 0 {
			p.obj[j] = math.Round(8*rng.NormFloat64()) / 4
		}
		switch rng.Intn(5) {
		case 0:
			p.lower[j] = math.Inf(-1)
			if rng.Intn(2) == 0 {
				p.obj[j] = 0
			}
			x0[j] = 4 * rng.NormFloat64()
		case 1, 2:
			p.upper[j] = 1 + float64(rng.Intn(8))
			x0[j] = p.upper[j] * rng.Float64()
		default:
			x0[j] = 5 * rng.Float64()
		}
	}
	for i := 0; i < m; i++ {
		var r Row
		lhs := 0.0
		for j := 0; j < n; j++ {
			if rng.Intn(10) == 0 {
				v := rng.NormFloat64()
				r.Idx, r.Val = append(r.Idx, int32(j)), append(r.Val, v)
				lhs += v * x0[j]
			}
		}
		if len(r.Idx) == 0 {
			continue
		}
		r.Rel, r.RHS = []Rel{LE, GE, EQ}[rng.Intn(3)], lhs
		switch r.Rel {
		case LE:
			r.RHS += rng.Float64()
		case GE:
			r.RHS -= rng.Float64()
		}
		p.rows = append(p.rows, r)
	}
	return p
}

// sameAsDense fails unless the pattern-walking solver s and the dense oracle
// o ended the same call identically: outcome, X, objective, iterations,
// cumulative pivots, basis, statuses, and — compared with ==, so only the
// sign of a zero may differ — basic values, reduced costs and every entry
// of B^-1.
func sameAsDense(t *testing.T, what string, s *Solver, o *denseSolver, got, want *Solution, gerr, werr error) {
	t.Helper()
	if classify(gerr) != classify(werr) || s.Pivots() != o.Pivots() {
		t.Fatalf("%s: %v after %d pivots, dense %v after %d", what, gerr, s.Pivots(), werr, o.Pivots())
	}
	if gerr == nil && (!slices.Equal(got.X, want.X) || got.Objective != want.Objective || got.Iterations != want.Iterations) {
		t.Fatalf("%s: X %v obj %v in %d, dense X %v obj %v in %d",
			what, got.X, got.Objective, got.Iterations, want.X, want.Objective, want.Iterations)
	}
	m, nTot := o.m, o.nTot
	if !slices.Equal(s.basis[:m], o.basis[:m]) || !slices.Equal(s.status[:nTot], o.status[:nTot]) {
		t.Fatalf("%s: basis %v statuses %v, dense %v %v", what, s.basis[:m], s.status[:nTot], o.basis[:m], o.status[:nTot])
	}
	for _, v := range []struct {
		name      string
		got, want []float64
	}{{"xB", s.xB[:m], o.xB[:m]}, {"d", s.d[:nTot], o.d[:nTot]}, {"B^-1", s.binv[:m*m], o.binv[:m*m]}} {
		if !slices.Equal(v.got, v.want) {
			for k := range v.got {
				if v.got[k] != v.want[k] {
					t.Fatalf("%s: %s[%d] = %v, dense %v", what, v.name, k, v.got[k], v.want[k])
				}
			}
		}
	}
}

// TestDifferentialSparseBasis drives the solver and the dense oracle through
// the same calls — a cold solve, snapshots, warm solves under branching
// bound changes from the snapshot just taken (the held fast path) and from
// older ones (restores) — on one Solver reused across LPs of every size, so
// each new row count re-lays the workspace out. The LPs come at three
// densities: ordering relaxations, whose B^-1 stays sparse; the benchmark's
// dense probe, which fills B^-1 in and switches the solver to its dense
// loops; and mixed EQ/GE/LE rows with free columns. After every call the two
// must agree bit for bit (sameAsDense).
func TestDifferentialSparseBasis(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	s, o := NewSolver(), &denseSolver{}
	var sparseEnds, denseEnds, wideEnds, restores int
	for trial := 0; trial < 90; trial++ {
		p := []func(*rand.Rand) *Problem{orderingLP, probeLP, mixedLP}[trial%3](rng)
		c, err := Compile(p)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		what := fmt.Sprintf("trial %d (%d rows) cold", trial, c.m)
		got, gerr := s.Solve(c, nil, nil)
		want, werr := o.Solve(c, nil, nil)
		sameAsDense(t, what, s, o, got, want, gerr, werr)
		if gerr != nil {
			continue
		}
		states, dstates := []*State{s.Snapshot(nil)}, []*denseState{o.Snapshot(nil)}
		x, fresh := got.X, true
		for step := 0; step < 14; step++ {
			k := len(states) - 1
			if !fresh || rng.Intn(3) == 0 {
				k = rng.Intn(len(states))
				restores++
			}
			// Branch on the most fractional variable, or on a random one.
			j, frac := rng.Intn(c.n), 0.0
			for i, v := range x {
				if f := math.Abs(v - math.Round(v)); f > frac+1e-6 && rng.Intn(4) > 0 {
					j, frac = i, f
				}
			}
			ch := []BoundChange{{Col: int32(j), Upper: true, Val: math.Floor(x[j])}}
			if rng.Intn(2) == 0 {
				ch[0] = BoundChange{Col: int32(j), Val: math.Ceil(x[j])}
			}
			what = fmt.Sprintf("trial %d (%d rows) step %d from snapshot %d/%d", trial, c.m, step, k, len(states))
			got, gerr = s.Solve(c, states[k], ch)
			want, werr = o.Solve(c, dstates[k], ch)
			sameAsDense(t, what, s, o, got, want, gerr, werr)
			fresh = false
			if gerr != nil {
				continue
			}
			switch {
			case s.dense:
				denseEnds++
			case c.m > 64:
				wideEnds++
				fallthrough
			default:
				sparseEnds++
			}
			if rng.Intn(3) > 0 {
				states, dstates = append(states, s.Snapshot(nil)), append(dstates, o.Snapshot(nil))
				x, fresh = got.X, true
			}
		}
	}
	if sparseEnds < 100 || denseEnds < 100 || wideEnds < 50 || restores < 100 {
		t.Fatalf("weak coverage: %d solves ended sparse (%d over 64 rows), %d dense, %d restores",
			sparseEnds, wideEnds, denseEnds, restores)
	}
}
