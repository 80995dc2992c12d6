package lp

// The dense-basis Solver as it was before the basis inverse gained a
// sparsity pattern, kept verbatim (types renamed) as a differential oracle:
// every call sequence TestDifferentialSparseBasis drives must leave the
// pattern-walking Solver bit for bit where this one ends (up to the sign of
// a zero).

import (
	"fmt"
	"math"
)

// denseState is the dense solver's snapshot: it copies the whole m×m B^-1.
type denseState struct {
	m, nTot int
	gen     uint64
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

// denseSolver keeps B^-1 as a dense m×m array and pays O(m²) for every
// snapshot, restore, recomputeXB and basis update.
type denseSolver struct {
	m, nTot int
	binv    []float64
	xB      []float64
	d       []float64
	basis   []int32
	rowOf   []int32
	status  []uint8
	lo, up  []float64
	artLo   []bool
	artUp   []bool
	alpha   []float64
	acol    []float64
	rhs     []float64

	pivots  uint64
	held    *denseState
	heldGen uint64
}

func (s *denseSolver) Pivots() uint64 { return s.pivots }

func (s *denseSolver) ensure(c *Compiled) {
	m, nTot := c.m, c.nTot
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
}

func (s *denseSolver) nbVal(j int) float64 {
	switch s.status[j] {
	case stLower:
		return s.lo[j]
	case stUpper:
		return s.up[j]
	default:
		return 0
	}
}

func (s *denseSolver) coldInit(c *Compiled) {
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

func (s *denseSolver) restore(st *denseState) {
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

func (s *denseSolver) Snapshot(dst *denseState) *denseState {
	if dst == nil {
		dst = &denseState{}
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

func (s *denseSolver) applyChanges(changes []BoundChange) error {
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

func (s *denseSolver) recomputeXB(c *Compiled) {
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

func (s *denseSolver) Solve(c *Compiled, warm *denseState, changes []BoundChange) (*Solution, error) {
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

func (s *denseSolver) dualSimplex(c *Compiled) (int, error) {
	m, n, nTot := c.m, c.n, c.nTot
	maxIter := 20000 + 50*(m+nTot)
	for iter := 0; ; iter++ {
		if iter >= maxIter {
			return iter, ErrIterLimit
		}
		bland := iter > blandThreshold

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
			return iter, nil
		}

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

func (s *denseSolver) extract(c *Compiled, iters int) (*Solution, error) {
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
	return &Solution{X: x, Objective: obj, Iterations: iters}, nil
}
