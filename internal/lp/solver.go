package lp

import (
	"fmt"
	"math"
	"math/bits"
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
	// A sparse snapshot keeps B^-1's row pattern in pat and, in binv, the
	// entries it covers row by row in ascending column order; a dense one
	// (dense set, pat unused) keeps all m×m entries.
	dense  bool
	pat    []uint64
	binv   []float64
	xB     []float64
	d      []float64
	basis  []int32
	rowOf  []int32
	status []uint8
	lo, up []float64
	artLo  []bool
	artUp  []bool
}

// Solver is a reusable simplex workspace. Steady-state solving allocates
// only the returned Solution: all internal vectors are grown once and kept.
// A Solver is not safe for concurrent use; create one per goroutine.
//
// B^-1 is a dense row-major array with a sparsity pattern beside it: bit k
// of row i's w words in rowPat is set when binv[i][k] may be non-zero,
// colPat is its exact transpose, and every entry outside them is zero. Every
// O(m²) pass walks only the pattern, summing what it sums in the dense order;
// a term left out is a product with an exact zero, which can change only the
// sign of a zero result, so the pivots are those of the dense loops. Once the
// pattern covers a quarter of B^-1 the solver drops it (dense) and runs the
// dense loops until the next cold start or sparse restore.
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
	alpha   []float64 // pivot-row coefficients of the columns in cols
	acol    []float64 // pivot column B^-1 A_q
	rhs     []float64 // scratch for recomputing xB

	w              int      // words per pattern row
	rowPat, colPat []uint64 // m rows / columns of w words
	nnz            int      // set bits of rowPat
	dense          bool     // no pattern: B^-1 filled in, or a new layout
	seen           []uint64 // scratch bitmap over columns, then rows
	cols, prow     []int32  // columns the pivot row reaches, rows the pivot column does
	idx            []int32  // one pattern row as a list

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

func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// ones returns dst[:0] followed by the set bits of a bitmap, ascending.
func ones(dst []int32, pat []uint64) []int32 {
	dst = dst[:0]
	for x, word := range pat {
		for ; word != 0; word &= word - 1 {
			dst = append(dst, int32(x<<6|bits.TrailingZeros64(word)))
		}
	}
	return dst
}

func (s *Solver) ensure(c *Compiled) {
	m, nTot := c.m, c.nTot
	if m != s.m {
		s.dense = true // a new layout: the next cold start or restore clears all of binv
	}
	s.m, s.nTot = m, nTot
	s.binv = grow(s.binv, m*m)
	s.xB = grow(s.xB, m)
	s.d = grow(s.d, nTot)
	s.basis = grow(s.basis, m)
	s.rowOf = grow(s.rowOf, nTot)
	s.status = grow(s.status, nTot)
	s.lo = grow(s.lo, nTot)
	s.up = grow(s.up, nTot)
	s.artLo = grow(s.artLo, nTot)
	s.artUp = grow(s.artUp, nTot)
	s.alpha = grow(s.alpha, nTot)
	s.acol = grow(s.acol, m)
	s.rhs = grow(s.rhs, m)
	s.w = (m + 63) >> 6
	s.rowPat = grow(s.rowPat, m*s.w)
	s.colPat = grow(s.colPat, m*s.w)
	s.seen = grow(s.seen, (nTot+63)>>6)
}

// row returns row i of the pattern.
func (s *Solver) row(i int) []uint64 { return s.rowPat[i*s.w : i*s.w+s.w] }

// set marks binv[i][k] as non-zero (on) or zero in both bitmaps.
func (s *Solver) set(i, k int, on bool) {
	rw, rb := &s.rowPat[i*s.w+k>>6], uint64(1)<<(k&63)
	if on != (*rw&rb != 0) {
		*rw ^= rb
		s.colPat[k*s.w+i>>6] ^= 1 << (i & 63)
		s.nnz += int(*rw>>(k&63)&1)*2 - 1 // +1 on, -1 off
	}
}

// clearBinv zeroes B^-1 (through the pattern unless dense) and empties the
// pattern.
func (s *Solver) clearBinv() {
	if s.dense {
		clear(s.binv)
	}
	for i := 0; i < s.m && !s.dense; i++ {
		s.idx = ones(s.idx, s.row(i))
		for _, k := range s.idx {
			s.binv[i*s.m+int(k)] = 0
		}
	}
	clear(s.rowPat)
	clear(s.colPat)
	s.dense, s.nnz = false, 0
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
	s.clearBinv()
	for i := 0; i < m; i++ {
		s.binv[i*m+i] = 1
		s.set(i, i, true)
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
	if st.dense {
		copy(s.binv, st.binv)
		s.dense = true
	} else {
		s.clearBinv()
		v := st.binv
		for i := 0; i < s.m; i++ {
			s.idx = ones(s.idx, st.pat[i*s.w:i*s.w+s.w])
			for _, k := range s.idx {
				s.binv[i*s.m+int(k)], v = v[0], v[1:]
				s.set(i, int(k), true)
			}
		}
	}
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
	dst.dense = s.dense
	if s.dense {
		dst.binv = append(dst.binv[:0], s.binv...)
	} else {
		dst.pat = append(dst.pat[:0], s.rowPat...)
		dst.binv = grow(dst.binv, s.nnz)[:0]
		for i := 0; i < s.m; i++ {
			s.idx = ones(s.idx, s.row(i))
			for _, k := range s.idx {
				dst.binv = append(dst.binv, s.binv[i*s.m+int(k)])
			}
		}
	}
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
		if s.dense {
			for k, rv := range rhs {
				acc += row[k] * rv
			}
		} else {
			s.idx = ones(s.idx, s.row(i))
			for _, k := range s.idx {
				acc += row[k] * rhs[k]
			}
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

// pivotRow sets alpha_j = rho . A_j, rho = e_r B^-1, for the columns in
// cols: dense, every nonbasic column, summed down its CSC column; else the
// columns rho's pattern reaches, summed over the CSR rows of that pattern in
// the same ascending row order. The others keep alpha = 0.
func (s *Solver) pivotRow(c *Compiled, r int) {
	m, n := c.m, c.n
	rho := s.binv[r*m : r*m+m]
	if s.dense {
		s.cols = s.cols[:0]
		for j := 0; j < c.nTot; j++ {
			if s.status[j] == stBasic {
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
			s.cols = append(s.cols, int32(j))
		}
		return
	}
	clear(s.seen)
	s.idx = ones(s.idx, s.row(r))
	for _, i := range s.idx {
		ri := rho[i]
		for k := c.rowPtr[i]; k < c.rowPtr[i+1]; k++ {
			j := c.colIdx[k]
			if s.seen[j>>6]&(1<<(j&63)) == 0 {
				s.seen[j>>6] |= 1 << (j & 63)
				s.alpha[j] = 0
			}
			s.alpha[j] += ri * c.rowVal[k]
		}
		j := n + int(i)
		s.seen[j>>6] |= 1 << (j & 63)
		s.alpha[j] = ri
	}
	s.cols = ones(s.cols, s.seen)
}

// pivotCol sets acol = B^-1 A_q: on every row when dense, else on prow, the
// union of the column patterns of A_q's rows, and exact zero elsewhere.
func (s *Solver) pivotCol(c *Compiled, q int) {
	m, acol := c.m, s.acol
	if s.dense {
		for i := 0; i < m; i++ {
			acol[i] = s.dot(c, i, q)
		}
		return
	}
	clear(s.seen)
	clear(acol)
	if q >= c.n {
		s.orCol(q - c.n)
	} else {
		for k := c.colPtr[q]; k < c.colPtr[q+1]; k++ {
			s.orCol(int(c.rowIdx[k]))
		}
	}
	s.prow = ones(s.prow, s.seen[:s.w])
	for _, i := range s.prow {
		acol[i] = s.dot(c, int(i), q)
	}
}

// dot is row i of B^-1 times column q of [A I].
func (s *Solver) dot(c *Compiled, i, q int) float64 {
	if q >= c.n {
		return s.binv[i*s.m+q-c.n]
	}
	row := s.binv[i*s.m : i*s.m+s.m]
	acc := 0.0
	for k := c.colPtr[q]; k < c.colPtr[q+1]; k++ {
		acc += row[c.rowIdx[k]] * c.vals[k]
	}
	return acc
}

// orCol adds column k's pattern to seen.
func (s *Solver) orCol(k int) {
	for x, b := range s.colPat[k*s.w : k*s.w+s.w] {
		s.seen[x] |= b
	}
}

// update applies the Gauss-Jordan step of pivoting on acol[r] to B^-1: row r
// is scaled, and every other row the pivot column reaches loses its multiple
// of it — over row r's pattern unless dense. An entry that fills in is ORed
// into both bitmaps; one that cancels to zero leaves them.
func (s *Solver) update(r int) {
	m, acol := s.m, s.acol
	inv := 1 / acol[r]
	rowR := s.binv[r*m : r*m+m]
	if s.dense {
		for k := range rowR {
			rowR[k] *= inv
		}
		for i := 0; i < m; i++ {
			if f := acol[i]; i != r && f != 0 {
				rowI := s.binv[i*m : i*m+m]
				for k := range rowI {
					rowI[k] -= f * rowR[k]
				}
			}
		}
		return
	}
	s.idx = ones(s.idx, s.row(r))
	for _, k := range s.idx {
		rowR[k] *= inv
	}
	for _, i := range s.prow {
		f := acol[i]
		if int(i) == r || f == 0 {
			continue
		}
		rowI := s.binv[int(i)*m : int(i)*m+m]
		for _, k := range s.idx {
			rowI[k] -= f * rowR[k]
			s.set(int(i), int(k), rowI[k] != 0)
		}
	}
	s.dense = 4*s.nnz > m*m
}

// dualSimplex pivots until every basic variable is within its bounds (the
// workspace is dual-feasible by construction). It returns ErrInfeasible when
// a violated row admits no entering column, and ErrIterLimit as a safety
// net. Pivot selection is deterministic: most-violated row (ties to the
// smallest basic variable index) and best dual ratio (ties to the smallest
// column index), degrading to Bland's rule after blandThreshold iterations.
func (s *Solver) dualSimplex(c *Compiled) (int, error) {
	m, nTot := c.m, c.nTot
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

		// Entering column: dual ratio test over the pivot row. A column out
		// of reach has alpha = 0 and is never eligible.
		s.pivotRow(c, r)
		q := -1
		bestRatio := 0.0
		for _, j := range s.cols {
			st := s.status[j]
			a := s.alpha[j]
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
				q, bestRatio = int(j), ratio
			}
		}
		if q == -1 {
			return iter, ErrInfeasible
		}

		s.pivotCol(c, q)
		acol := s.acol
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
			for _, j := range s.cols {
				if s.status[j] != stBasic {
					s.d[j] -= theta * s.alpha[j]
				}
			}
		}
		s.d[q] = 0
		s.d[p] = -theta

		s.update(r)

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
