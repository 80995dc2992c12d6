package milp

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"testing"
	"testing/quick"

	"wimesh/internal/lp"
)

func approx(a, b float64) bool { return math.Abs(a-b) < 1e-6 }

func TestKnapsackBinary(t *testing.T) {
	// max 10a + 6b + 4c s.t. a+b+c <= 2 (binary) -> a,b = 1: 16.
	m := NewModel(Maximize)
	a, err := m.AddVar("a", Binary, 1, 10)
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.AddVar("b", Binary, 1, 6)
	if err != nil {
		t.Fatal(err)
	}
	c, err := m.AddVar("c", Binary, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.AddConstraint(map[VarID]float64{a: 1, b: 1, c: 1}, LE, 2); err != nil {
		t.Fatal(err)
	}
	s, err := m.Solve(Options{})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if !approx(s.Objective, 16) {
		t.Errorf("objective = %g, want 16", s.Objective)
	}
	if !s.Optimal {
		t.Error("solution not proved optimal")
	}
	if !approx(s.X[a], 1) || !approx(s.X[b], 1) || !approx(s.X[c], 0) {
		t.Errorf("x = %v, want [1 1 0]", s.X)
	}
}

func TestIntegerRounding(t *testing.T) {
	// max x s.t. 2x <= 7, x integer -> 3 (LP gives 3.5).
	m := NewModel(Maximize)
	x, err := m.AddVar("x", Integer, math.Inf(1), 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.AddConstraint(map[VarID]float64{x: 2}, LE, 7); err != nil {
		t.Fatal(err)
	}
	s, err := m.Solve(Options{})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if !approx(s.X[x], 3) {
		t.Errorf("x = %g, want 3", s.X[x])
	}
}

func TestMixedIntegerContinuous(t *testing.T) {
	// max 2x + y, x integer, y continuous; x + y <= 3.5; x <= 2.
	// Optimal: x=2, y=1.5, obj=5.5.
	m := NewModel(Maximize)
	x, err := m.AddVar("x", Integer, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	y, err := m.AddVar("y", Continuous, math.Inf(1), 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.AddConstraint(map[VarID]float64{x: 1, y: 1}, LE, 3.5); err != nil {
		t.Fatal(err)
	}
	s, err := m.Solve(Options{})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if !approx(s.Objective, 5.5) {
		t.Errorf("objective = %g, want 5.5", s.Objective)
	}
}

func TestInfeasibleInteger(t *testing.T) {
	// 0.4 <= x <= 0.6, x integer: LP feasible, no integer point.
	m := NewModel(Minimize)
	x, err := m.AddVar("x", Integer, 0.6, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.AddConstraint(map[VarID]float64{x: 1}, GE, 0.4); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Solve(Options{}); !errors.Is(err, ErrInfeasible) {
		t.Errorf("got %v, want ErrInfeasible", err)
	}
}

func TestInfeasibleLP(t *testing.T) {
	m := NewModel(Minimize)
	x, err := m.AddVar("x", Binary, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.AddConstraint(map[VarID]float64{x: 1}, GE, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Solve(Options{}); !errors.Is(err, ErrInfeasible) {
		t.Errorf("got %v, want ErrInfeasible", err)
	}
}

func TestFirstFeasibleStopsEarly(t *testing.T) {
	// Feasibility problem: binary x,y with x + y = 1.
	m := NewModel(Minimize)
	x, err := m.AddVar("x", Binary, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	y, err := m.AddVar("y", Binary, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.AddConstraint(map[VarID]float64{x: 1, y: 1}, EQ, 1); err != nil {
		t.Fatal(err)
	}
	s, err := m.Solve(Options{FirstFeasible: true})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if !approx(s.X[x]+s.X[y], 1) {
		t.Errorf("x+y = %g, want 1", s.X[x]+s.X[y])
	}
}

func TestNodeLimit(t *testing.T) {
	// A problem needing branching, with MaxNodes=1: no incumbent possible.
	m := NewModel(Maximize)
	x, err := m.AddVar("x", Integer, math.Inf(1), 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.AddConstraint(map[VarID]float64{x: 2}, LE, 7); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Solve(Options{MaxNodes: 1}); !errors.Is(err, ErrLimit) {
		t.Errorf("got %v, want ErrLimit", err)
	}
}

func TestGraphColoringStyle(t *testing.T) {
	// Minimum slots for a triangle of mutually conflicting unit demands
	// equals 3: model as assignment of 3 links to 3 slots, minimize used
	// slots. x[l][s] binary, y[s] binary; each link in exactly one slot;
	// conflicting links not in the same slot; x[l][s] <= y[s].
	const L, S = 3, 3
	m := NewModel(Minimize)
	var x [L][S]VarID
	var y [S]VarID
	for s := 0; s < S; s++ {
		v, err := m.AddVar("y", Binary, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		y[s] = v
	}
	for l := 0; l < L; l++ {
		coef := make(map[VarID]float64)
		for s := 0; s < S; s++ {
			v, err := m.AddVar("x", Binary, 1, 0)
			if err != nil {
				t.Fatal(err)
			}
			x[l][s] = v
			coef[v] = 1
			if err := m.AddConstraint(map[VarID]float64{v: 1, y[s]: -1}, LE, 0); err != nil {
				t.Fatal(err)
			}
		}
		if err := m.AddConstraint(coef, EQ, 1); err != nil {
			t.Fatal(err)
		}
	}
	// All pairs conflict.
	for a := 0; a < L; a++ {
		for b := a + 1; b < L; b++ {
			for s := 0; s < S; s++ {
				if err := m.AddConstraint(map[VarID]float64{x[a][s]: 1, x[b][s]: 1}, LE, 1); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	sol, err := m.Solve(Options{})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if !approx(sol.Objective, 3) {
		t.Errorf("min slots = %g, want 3", sol.Objective)
	}
}

func TestValidation(t *testing.T) {
	m := NewModel(Minimize)
	if _, err := m.AddVar("bad", VarType(0), 1, 0); err == nil {
		t.Error("bad var type accepted")
	}
	if _, err := m.AddVar("neg", Continuous, -2, 0); err == nil {
		t.Error("negative upper bound accepted")
	}
	if err := m.AddConstraint(map[VarID]float64{5: 1}, LE, 0); err == nil {
		t.Error("out-of-range constraint variable accepted")
	}
}

// Property: branch-and-bound on random small binary knapsacks matches brute
// force.
func TestPropertyMatchesBruteForce(t *testing.T) {
	prop := func(w0, w1, w2, w3, p0, p1, p2, p3, cap uint8) bool {
		weights := []float64{float64(w0%9 + 1), float64(w1%9 + 1), float64(w2%9 + 1), float64(w3%9 + 1)}
		profits := []float64{float64(p0%9 + 1), float64(p1%9 + 1), float64(p2%9 + 1), float64(p3%9 + 1)}
		capacity := float64(cap%20 + 1)

		m := NewModel(Maximize)
		ids := make([]VarID, 4)
		coef := make(map[VarID]float64, 4)
		for i := 0; i < 4; i++ {
			v, err := m.AddVar("x", Binary, 1, profits[i])
			if err != nil {
				return false
			}
			ids[i] = v
			coef[v] = weights[i]
		}
		if err := m.AddConstraint(coef, LE, capacity); err != nil {
			return false
		}
		sol, err := m.Solve(Options{})
		if err != nil {
			return false
		}

		best := 0.0
		for mask := 0; mask < 16; mask++ {
			w, p := 0.0, 0.0
			for i := 0; i < 4; i++ {
				if mask&(1<<i) != 0 {
					w += weights[i]
					p += profits[i]
				}
			}
			if w <= capacity && p > best {
				best = p
			}
		}
		return approx(sol.Objective, best)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestResolveRecyclesNodeState re-solves one branching model. Once the first
// Solve has stocked the model's free list, a Solve allocates less than a
// single basis snapshot (m² float64s for m rows): solver workspaces and
// snapshots are recycled, not reallocated — and the re-solve is the same
// search.
func TestResolveRecyclesNodeState(t *testing.T) {
	const links, win = 12, 14
	var pairs [][2]int
	for a := 0; a < links; a++ {
		for b := a + 1; b < links; b++ {
			pairs = append(pairs, [2]int{a, b})
		}
	}
	cost, demand := make([]float64, links), make([]int, links)
	for l := range demand {
		cost[l], demand[l] = float64(l%3), 1
	}
	om := newOrderingModel(t, win, cost, pairs, false)
	om.setDemand(t, demand)
	opts := Options{FirstFeasible: true}
	first, err := om.m.Solve(opts)
	if err != nil {
		t.Fatal(err)
	}
	if first.Nodes < 5 {
		t.Fatalf("only %d nodes: the model must branch", first.Nodes)
	}
	const runs = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		sol, err := om.m.Solve(opts)
		sameSolve(t, fmt.Sprintf("re-solve %d", i), first, sol, nil, err, true)
	}
	runtime.ReadMemStats(&after)
	rows := 2 * len(pairs)
	if perSolve := (after.TotalAlloc - before.TotalAlloc) / runs; perSolve >= uint64(rows*rows*8) {
		t.Fatalf("re-solve allocates %d bytes, one %d-row basis snapshot is %d", perSolve, rows, rows*rows*8)
	}
}

// TestSnapshotRetainsOnlyNonZeros snapshots the basis of an ordering model
// with 306 rows after a chain of warm branch solves. Its B^-1 is under 1%
// non-zero, and a snapshot keeps only the pattern and the non-zeros: less
// than one byte per B^-1 entry, where a dense copy took eight.
func TestSnapshotRetainsOnlyNonZeros(t *testing.T) {
	const links, win = 18, 40
	var pairs [][2]int
	for a := 0; a < links; a++ {
		for b := a + 1; b < links; b++ {
			pairs = append(pairs, [2]int{a, b})
		}
	}
	cost, demand := make([]float64, links), make([]int, links)
	for l := range demand {
		cost[l], demand[l] = float64(l%3), 2
	}
	om := newOrderingModel(t, win, cost, pairs, false)
	om.setDemand(t, demand)
	c, err := om.m.compileRelaxation()
	if err != nil {
		t.Fatal(err)
	}
	solver := lp.NewSolver()
	if _, err := solver.Solve(c, nil, nil); err != nil {
		t.Fatal(err)
	}
	// Push the starts apart one branch at a time: each re-solve pivots.
	var st *lp.State
	for l := 0; l < links; l++ {
		st = solver.Snapshot(st)
		if _, err := solver.Solve(c, st, []lp.BoundChange{{Col: int32(om.start[l]), Val: float64(2 * l)}}); err != nil {
			t.Fatal(err)
		}
	}
	rows := 2 * len(pairs)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	st = solver.Snapshot(nil)
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(st)
	if got := after.TotalAlloc - before.TotalAlloc; got >= uint64(rows*rows) {
		t.Fatalf("a %d-row snapshot retains %d bytes, want under %d", rows, got, rows*rows)
	}
}
