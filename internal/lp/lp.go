// Package lp implements a bounded-variable revised simplex solver for linear
// programs, built for the small-to-medium integer programs produced by TDMA
// schedule optimization (internal/milp wraps it with branch-and-bound).
//
// Problems have the form
//
//	min/max  c . x
//	s.t.     a_i . x  (<=|=|>=)  b_i      for each constraint i
//	         l_j <= x_j <= u_j            (l_j defaults to 0, u_j to +Inf)
//
// Constraint rows are stored sparsely (parallel index/value slices). Variable
// bounds are handled implicitly by the solver via nonbasic-at-bound statuses,
// not as extra constraint rows, so the working basis has one row per
// constraint regardless of how many variables are bounded. Solving is split
// into Compile (immutable matrix form, shareable across goroutines) and
// Solver (a reusable workspace whose steady-state pivoting is
// allocation-free).
package lp

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Sense is the optimization direction.
type Sense int

// Optimization directions.
const (
	Minimize Sense = iota + 1
	Maximize
)

// Rel is a constraint relation.
type Rel int

// Constraint relations.
const (
	LE Rel = iota + 1 // <=
	GE                // >=
	EQ                // =
)

func (r Rel) String() string {
	switch r {
	case LE:
		return "<="
	case GE:
		return ">="
	case EQ:
		return "="
	default:
		return fmt.Sprintf("Rel(%d)", int(r))
	}
}

// Solver failure modes.
var (
	ErrInfeasible = errors.New("lp: infeasible")
	ErrUnbounded  = errors.New("lp: unbounded")
	ErrIterLimit  = errors.New("lp: iteration limit exceeded")
)

const (
	// eps is the general numerical tolerance on reduced costs and pivots.
	eps = 1e-9
	// feasTol is the primal feasibility tolerance on variable bounds.
	feasTol = 1e-7
	// blandThreshold switches pivot selection to Bland's rule after this
	// many iterations, guaranteeing termination on degenerate problems.
	blandThreshold = 500
)

// Row is one sparse constraint row: sum_k Val[k]*x[Idx[k]] Rel RHS. Idx is
// ascending with no duplicates.
type Row struct {
	Idx []int32
	Val []float64
	Rel Rel
	RHS float64
}

// Problem is a linear program under construction. Create with NewProblem,
// then add constraints and solve. Variables are indexed [0, NumVars).
type Problem struct {
	sense Sense
	obj   []float64
	lower []float64
	upper []float64
	rows  []Row
}

// NewProblem returns a problem with numVars variables, all with bounds
// [0, +Inf) and zero objective coefficients.
func NewProblem(sense Sense, numVars int) *Problem {
	upper := make([]float64, numVars)
	for i := range upper {
		upper[i] = math.Inf(1)
	}
	return &Problem{
		sense: sense,
		obj:   make([]float64, numVars),
		lower: make([]float64, numVars),
		upper: upper,
	}
}

// NewProblemShared wraps caller-owned objective, bound, and row slices
// without copying them. The caller promises the slices stay alive and are
// not resized while the problem is in use; mutating bound or RHS values
// between Compile calls is allowed and is the intended way to re-solve a
// structurally identical program with new data (internal/milp uses this to
// rebuild nothing between iterations).
func NewProblemShared(sense Sense, obj, lower, upper []float64, rows []Row) *Problem {
	return &Problem{sense: sense, obj: obj, lower: lower, upper: upper, rows: rows}
}

// NumVars returns the number of structural variables.
func (p *Problem) NumVars() int { return len(p.obj) }

// SetObjCoef sets the objective coefficient of variable j.
func (p *Problem) SetObjCoef(j int, v float64) error {
	if j < 0 || j >= len(p.obj) {
		return fmt.Errorf("lp: objective variable %d out of range", j)
	}
	p.obj[j] = v
	return nil
}

// SetUpper sets the upper bound of variable j.
func (p *Problem) SetUpper(j int, u float64) error {
	if j < 0 || j >= len(p.obj) {
		return fmt.Errorf("lp: bound variable %d out of range", j)
	}
	if u < 0 {
		return fmt.Errorf("lp: negative upper bound %g for variable %d", u, j)
	}
	p.upper[j] = u
	return nil
}

// AddConstraint adds the row coef . x rel rhs. The map is converted to the
// sparse row form (ascending indices, zero coefficients dropped).
func (p *Problem) AddConstraint(coef map[int]float64, rel Rel, rhs float64) error {
	idx := make([]int32, 0, len(coef))
	for j, v := range coef {
		if j < 0 || j >= len(p.obj) {
			return fmt.Errorf("lp: constraint variable %d out of range", j)
		}
		if v != 0 {
			idx = append(idx, int32(j))
		}
	}
	sort.Slice(idx, func(a, b int) bool { return idx[a] < idx[b] })
	val := make([]float64, len(idx))
	for k, j := range idx {
		val[k] = coef[int(j)]
	}
	return p.addRow(Row{Idx: idx, Val: val, Rel: rel, RHS: rhs})
}

func (p *Problem) addRow(r Row) error {
	if r.Rel != LE && r.Rel != GE && r.Rel != EQ {
		return fmt.Errorf("lp: bad relation %d", int(r.Rel))
	}
	for k, j := range r.Idx {
		if j < 0 || int(j) >= len(p.obj) {
			return fmt.Errorf("lp: constraint variable %d out of range", j)
		}
		if k > 0 && j <= r.Idx[k-1] {
			return fmt.Errorf("lp: constraint indices not ascending at %d", j)
		}
	}
	p.rows = append(p.rows, r)
	return nil
}

// Solution is an optimal LP solution.
type Solution struct {
	X         []float64
	Objective float64
	// Iterations is the simplex pivot count.
	Iterations int
}
