package lp

import (
	"fmt"
	"math"
)

// Nonbasic/basic variable statuses. A variable is either basic (one per
// row), resting on its lower or upper bound, or free (nonbasic at zero with
// both bounds infinite and zero reduced cost).
const (
	stBasic uint8 = iota
	stLower
	stUpper
	stFree
)

// BoundChange tightens one structural variable's bound: the upper bound is
// lowered to Val (if Val is smaller) or the lower bound is raised to Val (if
// Val is larger). Loosening is ignored — changes express branch-and-bound
// tightenings, never relaxations.
type BoundChange struct {
	Col   int32
	Upper bool
	Val   float64
}

// State is a snapshot of a Solver after a successful Solve: basis, basis
// inverse, statuses, reduced costs, and the effective bounds (including any
// artificial big-M bounds installed by the cold start). A State is only
// meaningful with the Compiled it was snapshotted from; it is read-only once
// taken and may be shared across goroutines, each restoring it into its own
// Solver. A State may be recycled: Snapshot into it again and it describes
// the new basis.
type State struct {
	m, nTot int
	gen     uint64 // bumped by every Snapshot into this State
	binv    []float64
	xB      []float64
	d       []float64
	basis   []int32
	rowOf   []int32
	status  []uint8
	lo, up  []float64
	artLo   []bool
	artUp   []bool
}

// Solver is a reusable simplex workspace. Steady-state solving allocates
// only the returned Solution: all internal vectors are grown once and kept.
// A Solver is not safe for concurrent use; create one per goroutine.
type Solver struct {
	m, nTot int
	binv    []float64 // m x m basis inverse, row-major
	xB      []float64 // values of basic variables by row
	d       []float64 // reduced costs (minimization form), len nTot
	basis   []int32   // basis[i] = variable basic in row i
	rowOf   []int32   // rowOf[j] = row of basic variable j, -1 if nonbasic
	status  []uint8
	lo, up  []float64 // effective bounds (artificial big-M applied)
	artLo   []bool
	artUp   []bool
	alpha   []float64 // pivot-row coefficients of nonbasic columns
	acol    []float64 // pivot column B^-1 A_q
	rhs     []float64 // scratch for recomputing xB

	pivots uint64 // cumulative pivot count across Solve calls
	// held is the State the workspace still equals, at generation heldGen:
	// set by Snapshot, cleared by Solve. Warm-starting from it skips the
	// restore copy — the branch-and-bound child explored right after its
	// parent continues from the live workspace. The generation keeps a
	// recycled State, since snapshotted again by another Solver, from
	// matching.
	held    *State
	heldGen uint64
}

// Pivots returns the cumulative simplex pivot count across every Solve call
// on this workspace, including solves that ended infeasible. Per-solve counts
// are in Solution.Iterations; the cumulative form lets a caller that issues
// many solves (a branch-and-bound search, an admission engine) report total
// pivot work without threading every Solution through.
func (s *Solver) Pivots() uint64 { return s.pivots }

// NewSolver returns an empty workspace; it sizes itself to each Compiled it
// solves.
func NewSolver() *Solver { return &Solver{} }

func growF(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

func growI(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

func (s *Solver) ensure(c *Compiled) {
	m, nTot := c.m, c.nTot
	s.m, s.nTot = m, nTot
	s.binv = growF(s.binv, m*m)
	s.xB = growF(s.xB, m)
	s.d = growF(s.d, nTot)
	s.basis = growI(s.basis, m)
	s.rowOf = growI(s.rowOf, nTot)
	if cap(s.status) < nTot {
		s.status = make([]uint8, nTot)
	} else {
		s.status = s.status[:nTot]
	}
	s.lo = growF(s.lo, nTot)
	s.up = growF(s.up, nTot)
	if cap(s.artLo) < nTot {
		s.artLo = make([]bool, nTot)
		s.artUp = make([]bool, nTot)
	} else {
		s.artLo = s.artLo[:nTot]
		s.artUp = s.artUp[:nTot]
	}
	s.alpha = growF(s.alpha, nTot)
	s.acol = growF(s.acol, m)
	s.rhs = growF(s.rhs, m)
}

// nbVal is the resting value of a nonbasic variable.
func (s *Solver) nbVal(j int) float64 {
	switch s.status[j] {
	case stLower:
		return s.lo[j]
	case stUpper:
		return s.up[j]
	default: // stFree
		return 0
	}
}

// coldInit sets up the all-logical basis (B = I) with every structural
// variable resting on the bound that makes its reduced cost dual-feasible:
// d_j >= 0 at the lower bound, d_j <= 0 at the upper. Variables whose cost
// pushes them toward an infinite bound get an artificial big-M bound there;
// resting on it at the optimum certifies unboundedness.
func (s *Solver) coldInit(c *Compiled) {
	m, n := c.m, c.n
	for i := range s.binv {
		s.binv[i] = 0
	}
	for i := 0; i < m; i++ {
		s.binv[i*m+i] = 1
	}
	copy(s.lo, c.lo)
	copy(s.up, c.up)
	copy(s.d, c.cost)
	for j := range s.artLo {
		s.artLo[j] = false
		s.artUp[j] = false
	}
	for i := 0; i < m; i++ {
		s.basis[i] = int32(n + i)
		s.rowOf[n+i] = int32(i)
		s.status[n+i] = stBasic
	}
	for j := 0; j < n; j++ {
		s.rowOf[j] = -1
		switch dj := s.d[j]; {
		case dj > eps:
			if math.IsInf(s.lo[j], -1) {
				s.lo[j] = -c.bigM
				s.artLo[j] = true
			}
			s.status[j] = stLower
		case dj < -eps:
			if math.IsInf(s.up[j], 1) {
				s.up[j] = c.bigM
				s.artUp[j] = true
			}
			s.status[j] = stUpper
		default:
			switch {
			case !math.IsInf(s.lo[j], -1):
				s.status[j] = stLower
			case !math.IsInf(s.up[j], 1):
				s.status[j] = stUpper
			default:
				s.status[j] = stFree
			}
		}
	}
}

// restore loads a snapshot into the workspace.
func (s *Solver) restore(st *State) {
	copy(s.binv, st.binv)
	copy(s.xB, st.xB)
	copy(s.d, st.d)
	copy(s.basis, st.basis)
	copy(s.rowOf, st.rowOf)
	copy(s.status, st.status)
	copy(s.lo, st.lo)
	copy(s.up, st.up)
	copy(s.artLo, st.artLo)
	copy(s.artUp, st.artUp)
}

// Snapshot copies the solver's current basis state into dst (allocating if
// dst is nil) and returns it. Call it only after a successful Solve.
func (s *Solver) Snapshot(dst *State) *State {
	if dst == nil {
		dst = &State{}
	}
	dst.m, dst.nTot = s.m, s.nTot
	dst.gen++
	s.held, s.heldGen = dst, dst.gen
	dst.binv = append(dst.binv[:0], s.binv...)
	dst.xB = append(dst.xB[:0], s.xB...)
	dst.d = append(dst.d[:0], s.d...)
	dst.basis = append(dst.basis[:0], s.basis...)
	dst.rowOf = append(dst.rowOf[:0], s.rowOf...)
	dst.status = append(dst.status[:0], s.status...)
	dst.lo = append(dst.lo[:0], s.lo...)
	dst.up = append(dst.up[:0], s.up...)
	dst.artLo = append(dst.artLo[:0], s.artLo...)
	dst.artUp = append(dst.artUp[:0], s.artUp...)
	return dst
}

// applyChanges tightens bounds in the workspace. It reports ErrInfeasible
// when a variable's box becomes empty.
func (s *Solver) applyChanges(changes []BoundChange) error {
	for _, ch := range changes {
		j := int(ch.Col)
		if ch.Upper {
			if ch.Val < s.up[j] {
				s.up[j] = ch.Val
				s.artUp[j] = false
			}
		} else {
			if ch.Val > s.lo[j] {
				s.lo[j] = ch.Val
				s.artLo[j] = false
			}
		}
		if s.lo[j] > s.up[j]+eps {
			return ErrInfeasible
		}
		// A bound appearing on a previously-free variable gives it a resting
		// place; its reduced cost is zero, so either bound is dual-feasible.
		if s.status[j] == stFree {
			if !math.IsInf(s.lo[j], -1) {
				s.status[j] = stLower
			} else if !math.IsInf(s.up[j], 1) {
				s.status[j] = stUpper
			}
		}
	}
	return nil
}

// recomputeXB sets xB = B^-1 (b - N x_N) from the current statuses, bounds,
// and basis inverse.
func (s *Solver) recomputeXB(c *Compiled) {
	m, n := c.m, c.n
	rhs := s.rhs
	copy(rhs, c.b)
	for j := 0; j < n; j++ {
		if s.status[j] == stBasic {
			continue
		}
		v := s.nbVal(j)
		if v == 0 {
			continue
		}
		for k := c.colPtr[j]; k < c.colPtr[j+1]; k++ {
			rhs[c.rowIdx[k]] -= c.vals[k] * v
		}
	}
	for i := 0; i < m; i++ {
		if s.status[n+i] == stBasic {
			continue
		}
		if v := s.nbVal(n + i); v != 0 {
			rhs[i] -= v
		}
	}
	for i := 0; i < m; i++ {
		row := s.binv[i*m : i*m+m]
		acc := 0.0
		for k, rv := range rhs {
			acc += row[k] * rv
		}
		s.xB[i] = acc
	}
}

// Solve optimizes the compiled program. With warm == nil it cold-starts from
// the all-logical basis; otherwise it restores the snapshot (which must come
// from the same Compiled) and re-solves after applying the bound changes
// with a dual-simplex cleanup — the warm path is how branch-and-bound
// re-solves thousands of bound-tightened children without rebuilding
// anything. A snapshot this workspace took and has not moved from since is
// not copied back. Changes may be nil.
func (s *Solver) Solve(c *Compiled, warm *State, changes []BoundChange) (*Solution, error) {
	s.ensure(c)
	held := s.held
	s.held = nil
	switch {
	case warm == nil:
		s.coldInit(c)
	case warm.m != c.m || warm.nTot != c.nTot:
		return nil, fmt.Errorf("lp: warm state has %d rows / %d columns, compiled has %d / %d",
			warm.m, warm.nTot, c.m, c.nTot)
	case warm != held || warm.gen != s.heldGen:
		s.restore(warm)
	}
	if err := s.applyChanges(changes); err != nil {
		return nil, err
	}
	s.recomputeXB(c)
	iters, err := s.dualSimplex(c)
	s.pivots += uint64(iters)
	if err != nil {
		return nil, err
	}
	return s.extract(c, iters)
}

// dualSimplex pivots until every basic variable is within its bounds (the
// workspace is dual-feasible by construction). It returns ErrInfeasible when
// a violated row admits no entering column, and ErrIterLimit as a safety
// net. Pivot selection is deterministic: most-violated row (ties to the
// smallest basic variable index) and best dual ratio (ties to the smallest
// column index), degrading to Bland's rule after blandThreshold iterations.
func (s *Solver) dualSimplex(c *Compiled) (int, error) {
	m, n, nTot := c.m, c.n, c.nTot
	maxIter := 20000 + 50*(m+nTot)
	for iter := 0; ; iter++ {
		if iter >= maxIter {
			return iter, ErrIterLimit
		}
		bland := iter > blandThreshold

		// Leaving row: a basic variable outside its bounds.
		r := -1
		below := false
		bestViol := 0.0
		bestVar := int32(0)
		for i := 0; i < m; i++ {
			bi := s.basis[i]
			v, isBelow := s.lo[bi]-s.xB[i], true
			if w := s.xB[i] - s.up[bi]; w > v {
				v, isBelow = w, false
			}
			if v <= feasTol {
				continue
			}
			take := false
			if r == -1 {
				take = true
			} else if bland {
				take = bi < bestVar
			} else if v > bestViol+1e-12 || (v > bestViol-1e-12 && bi < bestVar) {
				take = true
			}
			if take {
				r, below, bestViol, bestVar = i, isBelow, v, bi
			}
		}
		if r == -1 {
			return iter, nil // primal feasible: optimal
		}

		// Entering column: dual ratio test over the pivot row
		// rho = e_r B^-1. alpha[j] = rho . A_j is kept for the reduced-cost
		// update below.
		rho := s.binv[r*m : r*m+m]
		q := -1
		bestRatio := 0.0
		for j := 0; j < nTot; j++ {
			st := s.status[j]
			if st == stBasic {
				continue
			}
			var a float64
			if j < n {
				for k := c.colPtr[j]; k < c.colPtr[j+1]; k++ {
					a += rho[c.rowIdx[k]] * c.vals[k]
				}
			} else {
				a = rho[j-n]
			}
			s.alpha[j] = a
			eligible := false
			switch st {
			case stLower:
				eligible = (below && a < -eps) || (!below && a > eps)
			case stUpper:
				eligible = (below && a > eps) || (!below && a < -eps)
			case stFree:
				eligible = a > eps || a < -eps
			}
			if !eligible {
				continue
			}
			ratio := math.Abs(s.d[j]) / math.Abs(a)
			if q == -1 || ratio < bestRatio-eps {
				q, bestRatio = j, ratio
			}
		}
		if q == -1 {
			return iter, ErrInfeasible
		}

		// Pivot column B^-1 A_q.
		acol := s.acol
		if q < n {
			for i := 0; i < m; i++ {
				row := s.binv[i*m : i*m+m]
				acc := 0.0
				for k := c.colPtr[q]; k < c.colPtr[q+1]; k++ {
					acc += row[c.rowIdx[k]] * c.vals[k]
				}
				acol[i] = acc
			}
		} else {
			col := q - n
			for i := 0; i < m; i++ {
				acol[i] = s.binv[i*m+col]
			}
		}
		piv := acol[r]

		// Primal step: the leaving variable lands on its violated bound.
		p := int(s.basis[r])
		beta := s.up[p]
		if below {
			beta = s.lo[p]
		}
		t := (s.xB[r] - beta) / piv
		xq := s.nbVal(q) + t
		for i := 0; i < m; i++ {
			s.xB[i] -= t * acol[i]
		}
		s.xB[r] = xq

		// Dual step: d_j -= theta * alpha_j keeps every nonbasic
		// dual-feasible because theta respects the ratio test.
		theta := s.d[q] / piv
		if theta != 0 {
			for j := 0; j < nTot; j++ {
				if s.status[j] != stBasic {
					s.d[j] -= theta * s.alpha[j]
				}
			}
		}
		s.d[q] = 0
		s.d[p] = -theta

		// Basis inverse update (product form, one Gauss-Jordan step).
		inv := 1 / piv
		rowR := s.binv[r*m : r*m+m]
		for k := range rowR {
			rowR[k] *= inv
		}
		for i := 0; i < m; i++ {
			if i == r {
				continue
			}
			f := acol[i]
			if f == 0 {
				continue
			}
			rowI := s.binv[i*m : i*m+m]
			for k := range rowI {
				rowI[k] -= f * rowR[k]
			}
		}

		if below {
			s.status[p] = stLower
		} else {
			s.status[p] = stUpper
		}
		s.rowOf[p] = -1
		s.status[q] = stBasic
		s.rowOf[q] = int32(r)
		s.basis[r] = int32(q)
	}
}

// extract reads the optimum out of the workspace, detecting unboundedness
// via variables resting on artificial bounds.
func (s *Solver) extract(c *Compiled, iters int) (*Solution, error) {
	n := c.n
	x := make([]float64, n)
	for j := 0; j < n; j++ {
		switch s.status[j] {
		case stBasic:
			x[j] = s.xB[s.rowOf[j]]
		case stLower:
			x[j] = s.lo[j]
		case stUpper:
			x[j] = s.up[j]
		}
	}
	tolM := 1e-6 * c.bigM
	for j := 0; j < n; j++ {
		if (s.artUp[j] && x[j] >= s.up[j]-tolM) || (s.artLo[j] && x[j] <= s.lo[j]+tolM) {
			return nil, ErrUnbounded
		}
	}
	obj := 0.0
	for j, cj := range c.obj {
		obj += cj * x[j]
	}
	if err := debugCheck(c, s); err != nil {
		return nil, err
	}
	return &Solution{X: x, Objective: obj, Iterations: iters}, nil
}
