// Package milp implements a mixed-integer linear program solver:
// branch-and-bound over the LP relaxation provided by internal/lp.
//
// It targets the binary programs of TDMA schedule optimization
// (transmission-order variables, slot-feasibility tests), which are small but
// need exact answers. All variables have lower bound 0; integer variables
// branch by tightening bounds, so every branch-and-bound node shares the
// root's constraint matrix and differs only in variable bounds. That lets
// each node re-solve with a warm-started dual simplex from its parent's
// basis snapshot — one new bound to clean up, typically a handful of pivots —
// instead of two phases from scratch. A node's relaxation is a pure function
// of its parent's snapshot and its own branch, and the root is solved cold,
// so by induction every snapshot — and with it the node and pivot counts of
// the sequential depth-first search — is a pure function of the model.
//
// The relaxation holds only rows with a non-zero coefficient: an all-zero
// row constrains nothing (or, unsatisfiable, makes the model infeasible), so
// a persistent model can switch rows off by zeroing them and pay nothing for
// them in the basis. Workspaces and snapshots (only B^-1's non-zeros, a few
// percent of it) are recycled through a free list owned by the Model.
package milp

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"wimesh/internal/lp"
	"wimesh/internal/obs"
)

// VarType classifies a model variable.
type VarType int

// Variable types.
const (
	Continuous VarType = iota + 1
	Integer
	Binary
)

// Sense re-exports the optimization direction.
type Sense = lp.Sense

// Optimization directions.
const (
	Minimize = lp.Minimize
	Maximize = lp.Maximize
)

// Rel re-exports constraint relations.
type Rel = lp.Rel

// Constraint relations.
const (
	LE = lp.LE
	GE = lp.GE
	EQ = lp.EQ
)

// Solver failure modes.
var (
	ErrInfeasible = errors.New("milp: infeasible")
	ErrLimit      = errors.New("milp: search limit reached without a feasible solution")
)

// VarID identifies a model variable.
type VarID int

type variable struct {
	name    string
	typ     VarType
	upper   float64
	objCoef float64
}

// Model is a MILP under construction. Constraint rows are stored in the
// sparse lp.Row form; AddConstraintIdx, SetCoef, SetRHS, and SetUpper allow
// re-solving a structurally stable model with mutated data (the incremental
// window search in internal/schedule relies on this). A Model is not safe
// for concurrent use.
type Model struct {
	sense Sense
	vars  []variable
	rows  []lp.Row

	// The solver workspace and a free list of basis snapshots, kept from
	// earlier searches for the next Solve on this model.
	solver *lp.Solver
	states []*lp.State
}

// NewModel returns an empty model with the given optimization direction.
func NewModel(sense Sense) *Model {
	return &Model{sense: sense}
}

// AddVar adds a variable with bounds [0, upper] (upper may be +Inf for
// continuous/integer; Binary forces [0,1]) and the given objective
// coefficient. The name is used in diagnostics only.
func (m *Model) AddVar(name string, typ VarType, upper, objCoef float64) (VarID, error) {
	switch typ {
	case Binary:
		upper = 1
	case Continuous, Integer:
		if upper < 0 {
			return 0, fmt.Errorf("milp: negative upper bound %g for %q", upper, name)
		}
	default:
		return 0, fmt.Errorf("milp: bad variable type %d for %q", int(typ), name)
	}
	id := VarID(len(m.vars))
	m.vars = append(m.vars, variable{name: name, typ: typ, upper: upper, objCoef: objCoef})
	return id, nil
}

// SetUpper replaces the upper bound of a Continuous or Integer variable;
// the next Solve picks it up.
func (m *Model) SetUpper(v VarID, upper float64) error {
	if v < 0 || int(v) >= len(m.vars) {
		return fmt.Errorf("milp: bound variable %d out of range", v)
	}
	if m.vars[v].typ == Binary {
		return fmt.Errorf("milp: cannot rebound binary variable %q", m.vars[v].name)
	}
	if upper < 0 {
		return fmt.Errorf("milp: negative upper bound %g for %q", upper, m.vars[v].name)
	}
	m.vars[v].upper = upper
	return nil
}

// AddConstraint adds the row coef . x rel rhs, converting the map to the
// sparse row form. Prefer AddConstraintIdx when building models in bulk.
func (m *Model) AddConstraint(coef map[VarID]float64, rel Rel, rhs float64) error {
	ids := make([]VarID, 0, len(coef))
	for v, c := range coef {
		if c != 0 {
			ids = append(ids, v)
		}
	}
	slices.Sort(ids)
	vals := make([]float64, len(ids))
	for k, v := range ids {
		vals[k] = coef[v]
	}
	_, err := m.AddConstraintIdx(ids, vals, rel, rhs)
	return err
}

// AddConstraintIdx adds the sparse row sum_k coefs[k]*x[ids[k]] rel rhs and
// returns its row index, usable with SetCoef/SetRHS. Both slices are copied;
// ids need not be sorted but must not repeat a variable.
func (m *Model) AddConstraintIdx(ids []VarID, coefs []float64, rel Rel, rhs float64) (int, error) {
	if len(ids) != len(coefs) {
		return 0, fmt.Errorf("milp: index/value length mismatch %d != %d", len(ids), len(coefs))
	}
	if rel != LE && rel != GE && rel != EQ {
		return 0, fmt.Errorf("milp: bad relation %d", int(rel))
	}
	idx := make([]int32, len(ids))
	val := make([]float64, len(ids))
	for k, v := range ids {
		if v < 0 || int(v) >= len(m.vars) {
			return 0, fmt.Errorf("milp: constraint variable %d out of range", v)
		}
		idx[k] = int32(v)
		val[k] = coefs[k]
	}
	// Insertion sort by index: rows are tiny and mostly sorted already.
	for i := 1; i < len(idx); i++ {
		for k := i; k > 0 && idx[k] < idx[k-1]; k-- {
			idx[k], idx[k-1] = idx[k-1], idx[k]
			val[k], val[k-1] = val[k-1], val[k]
		}
	}
	for k := 1; k < len(idx); k++ {
		if idx[k] == idx[k-1] {
			return 0, fmt.Errorf("milp: duplicate constraint variable %d", idx[k])
		}
	}
	m.rows = append(m.rows, lp.Row{Idx: idx, Val: val, Rel: rel, RHS: rhs})
	return len(m.rows) - 1, nil
}

// SetRHS replaces the right-hand side of row i.
func (m *Model) SetRHS(i int, rhs float64) error {
	if i < 0 || i >= len(m.rows) {
		return fmt.Errorf("milp: row %d out of range", i)
	}
	m.rows[i].RHS = rhs
	return nil
}

// SetCoef replaces the coefficient of variable v in row i; v must already
// appear in the row (the sparsity pattern is fixed at AddConstraintIdx time).
func (m *Model) SetCoef(i int, v VarID, coef float64) error {
	if i < 0 || i >= len(m.rows) {
		return fmt.Errorf("milp: row %d out of range", i)
	}
	r := &m.rows[i]
	for k, j := range r.Idx {
		if j == int32(v) {
			r.Val[k] = coef
			return nil
		}
	}
	return fmt.Errorf("milp: variable %d not in row %d", v, i)
}

// Options bounds the branch-and-bound search.
type Options struct {
	// MaxNodes limits explored nodes (0 = 1e6 default).
	MaxNodes int
	// FirstFeasible stops at the first integral solution (feasibility
	// problems).
	FirstFeasible bool
	// Workers is ignored: the search is sequential. It stays because the
	// repository benchmark (benchmark/plan.go, probes.go, serving.go) still
	// sets it.
	Workers int
	// coldStart solves every node's relaxation from scratch instead of
	// warm-starting from the root basis snapshot. The search proves the
	// same optimum either way; the cold path is the oracle
	// TestDifferentialWarmVsCold pins the warm one to, and only this
	// package's tests can set it.
	coldStart bool
	// Interrupt aborts the search when the channel closes (or yields a
	// value): the search stops before its next node and Solve returns
	// ErrLimit. It is the cancellation hook for long-lived callers — the
	// admission engine wires a context's Done channel here so a daemon
	// shuts down cleanly mid-solve. Which nodes were explored before the
	// interrupt is timing-dependent, so an interrupted solve is not
	// deterministic; nil (the default) keeps the search fully deterministic.
	Interrupt <-chan struct{}
}

// Solution is the result of a Solve call.
type Solution struct {
	X         []float64
	Objective float64
	// Optimal reports that the search proved optimality (or, with
	// FirstFeasible, found an integral solution).
	Optimal bool
	// Nodes is the number of branch-and-bound nodes explored.
	Nodes int
	// Pivots is the total simplex pivot count across the node relaxations
	// (lp.Solution.Iterations summed over the search). It is the honest
	// cost measure of a warm-started re-solve — a good warm start re-proves
	// feasibility in a handful of dual pivots where a cold solve pays a full
	// two-phase run. Like Nodes, it is a function of the model and the
	// options unless an Interrupt cuts the search short.
	Pivots int
}

// intTol is the integrality tolerance: a value within it of an integer
// counts as integral.
const intTol = 1e-6

// branch is one bound tightened on the path to a node: variable v rel value.
type branch struct {
	v   VarID
	rel Rel
	val float64
}

// node is one open subproblem of the branch-and-bound tree.
type node struct {
	branches []branch
	// parent is the parent node's post-solve basis snapshot (nil at the
	// root and in cold-start mode). The snapshot already carries every
	// ancestor bound, so the node warm-starts from it with only its own
	// branch applied. Both children share it; the one popped last, marked
	// last, returns it to the model's free list.
	parent *lp.State
	last   bool
}

// release returns n's parent snapshot to the free list if n is its last
// reader. The snapshot must not be read afterwards.
func (m *Model) release(n node) {
	if n.last {
		m.states = append(m.states, n.parent)
	}
}

// search is the state of one Solve call: the depth-first stack, the
// incumbent, and the limit bookkeeping.
type search struct {
	m        *Model
	compiled *lp.Compiled
	sign     float64 // minimization-form multiplier
	opts     Options // MaxNodes defaulted

	stack    []node // LIFO: depth-first order
	nodes    int    // LP relaxations solved
	pivots   uint64 // simplex pivots across node relaxations
	limitHit bool

	incumbent    []float64
	incumbentObj float64 // minimization form

	// Observability handles, captured from the process default in Solve; nil
	// (no-op) when none is installed.
	obsWarm *obs.Counter
	obsCold *obs.Counter
}

// Solve runs branch-and-bound and returns the best integral solution. It
// returns ErrInfeasible if no integral solution exists, or ErrLimit if
// limits were exhausted before one was found. Of equally good solutions the
// one found first in depth-first order wins.
func (m *Model) Solve(opts Options) (*Solution, error) {
	if opts.MaxNodes == 0 {
		opts.MaxNodes = 1_000_000
	}
	compiled, err := m.compileRelaxation()
	if err != nil {
		if errors.Is(err, lp.ErrInfeasible) {
			return nil, ErrInfeasible
		}
		return nil, err
	}
	sign := 1.0
	if m.sense == Maximize {
		sign = -1
	}
	s := &search{m: m, compiled: compiled, sign: sign, opts: opts,
		stack: []node{{}}, incumbentObj: math.Inf(1)}
	reg := obs.Default()
	s.obsWarm = reg.Counter("milp.warm_solves")
	s.obsCold = reg.Counter("milp.cold_solves")

	if m.solver == nil {
		m.solver = lp.NewSolver()
	}
	err = s.run()
	for _, n := range s.stack {
		m.release(n)
	}

	if err != nil {
		return nil, err
	}
	if s.incumbent == nil {
		if s.limitHit {
			return nil, fmt.Errorf("%w (nodes=%d)", ErrLimit, s.nodes)
		}
		return nil, ErrInfeasible
	}
	obj := 0.0
	for j, v := range m.vars {
		obj += v.objCoef * s.incumbent[j]
	}
	reg.Counter("milp.solves").Inc()
	reg.Counter("milp.nodes").Add(uint64(s.nodes))
	return &Solution{X: s.incumbent, Objective: obj, Optimal: !s.limitHit,
		Nodes: s.nodes, Pivots: int(s.pivots)}, nil
}

// limited reports whether the node budget or Options.Interrupt stops the search before its next node. The select is
// non-blocking, and a nil interrupt never fires.
func (s *search) limited() bool {
	if s.nodes >= s.opts.MaxNodes {
		return true
	}
	select {
	case <-s.opts.Interrupt:
		return true
	default:
		return false
	}
}

// compileRelaxation freezes the LP relaxation of the model without any
// branch bounds. The bound and objective slices are built fresh (picking up
// SetUpper-style mutations) and the rows are lent to lp without copying,
// minus every all-zero row: a satisfiable one constrains nothing, an
// unsatisfiable one makes the model infeasible. The rows kept stay in
// order, so the simplex breaks ties exactly as over the full row set.
func (m *Model) compileRelaxation() (*lp.Compiled, error) {
	n := len(m.vars)
	obj := make([]float64, n)
	lower := make([]float64, n)
	upper := make([]float64, n)
	for j, v := range m.vars {
		obj[j] = v.objCoef
		upper[j] = v.upper
	}
	rows := make([]lp.Row, 0, len(m.rows))
	for _, r := range m.rows {
		switch {
		case slices.ContainsFunc(r.Val, func(c float64) bool { return c != 0 }):
			rows = append(rows, r)
		case r.Rel == GE && r.RHS > 0, r.Rel == LE && r.RHS < 0, r.Rel == EQ && r.RHS != 0:
			return nil, lp.ErrInfeasible
		}
	}
	return lp.Compile(lp.NewProblemShared(m.sense, obj, lower, upper, rows))
}

// run pops nodes off the stack and expands them, pushing their children,
// until the tree is exhausted, a limit fires, or (with FirstFeasible) an
// incumbent exists.
func (s *search) run() error {
	var changes []lp.BoundChange
	for len(s.stack) > 0 && !(s.opts.FirstFeasible && s.incumbent != nil) {
		if s.limited() {
			s.limitHit = true
			return nil
		}
		cur := s.stack[len(s.stack)-1]
		s.stack = s.stack[:len(s.stack)-1]
		s.nodes++
		changes = changes[:0]
		for _, b := range cur.branches {
			changes = append(changes, lp.BoundChange{Col: int32(b.v), Upper: b.rel == LE, Val: b.val})
		}
		children, err := s.expand(cur, changes)
		s.m.release(cur)
		if err != nil {
			return err
		}
		s.stack = append(s.stack, children...)
	}
	return nil
}

// expand solves a node's relaxation and returns its children (nil when the
// node is pruned, infeasible, or integral). Children are ordered so the
// preferred child is popped first from the LIFO stack.
func (s *search) expand(cur node, changes []lp.BoundChange) ([]node, error) {
	solver := s.m.solver
	var warm *lp.State
	if cur.parent != nil {
		// The snapshot's bounds already reflect every ancestor branch;
		// only the node's own branch is new.
		warm = cur.parent
		changes = changes[len(changes)-1:]
		s.obsWarm.Inc()
	} else {
		s.obsCold.Inc()
	}
	before := solver.Pivots()
	sol, err := solver.Solve(s.compiled, warm, changes)
	s.pivots += solver.Pivots() - before
	if errors.Is(err, lp.ErrInfeasible) {
		return nil, nil
	}
	if errors.Is(err, lp.ErrUnbounded) {
		// An unbounded relaxation of an integer problem: treat as an error
		// since our scheduling models are bounded.
		return nil, fmt.Errorf("milp: relaxation unbounded: %w", err)
	}
	if err != nil {
		return nil, fmt.Errorf("milp: relaxation: %w", err)
	}
	// Every node popped after the incumbent lies later in depth-first
	// order, so a tie with the incumbent loses: the subtree cannot improve
	// on it.
	bound := s.sign * sol.Objective
	if s.incumbent != nil && bound >= s.incumbentObj-1e-9 {
		return nil, nil
	}

	fracVar, fracVal := s.m.mostFractional(sol.X)
	if fracVar == -1 {
		s.incumbent, s.incumbentObj = slices.Clone(sol.X), bound
		for j, v := range s.m.vars {
			if v.typ != Continuous {
				s.incumbent[j] = math.Round(s.incumbent[j])
			}
		}
		return nil, nil
	}
	// Branch. floor child: x <= floor(v); ceil child: x >= ceil(v). The
	// child nearer the fractional value is preferred and goes last so the
	// LIFO pops it first. Both children share this node's post-solve
	// snapshot as their warm-start seed; the solver still holds it, so the
	// preferred child skips the restore.
	var parent *lp.State
	if !s.opts.coldStart {
		if n := len(s.m.states); n > 0 {
			parent, s.m.states = s.m.states[n-1], s.m.states[:n-1]
		}
		parent = solver.Snapshot(parent)
	}
	floorB := append(append([]branch(nil), cur.branches...), branch{v: fracVar, rel: LE, val: math.Floor(fracVal)})
	ceilB := append(append([]branch(nil), cur.branches...), branch{v: fracVar, rel: GE, val: math.Ceil(fracVal)})
	if fracVal-math.Floor(fracVal) < 0.5 {
		return []node{{branches: ceilB, parent: parent, last: parent != nil}, {branches: floorB, parent: parent}}, nil
	}
	return []node{{branches: floorB, parent: parent, last: parent != nil}, {branches: ceilB, parent: parent}}, nil
}

// mostFractional returns the integer variable with value farthest from an
// integer, or -1 if all integer variables are integral within intTol.
func (m *Model) mostFractional(x []float64) (VarID, float64) {
	best, bestDist := VarID(-1), intTol
	for j, v := range m.vars {
		if v.typ == Continuous {
			continue
		}
		f := x[j] - math.Floor(x[j])
		dist := math.Min(f, 1-f)
		if dist > bestDist {
			best, bestDist = VarID(j), dist
		}
	}
	if best == -1 {
		return -1, 0
	}
	return best, x[best]
}
