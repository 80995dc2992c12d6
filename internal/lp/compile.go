package lp

import "math"

// Compiled is the immutable matrix form of a Problem: the constraint matrix
// in compressed sparse column layout over the structural variables, the
// minimization-form cost vector, the right-hand side, and the effective
// bounds of both structural and logical (one slack per row) variables.
//
// A Compiled is read-only after Compile returns and may be shared freely
// across goroutines; each goroutine solves it with its own Solver.
type Compiled struct {
	sense Sense
	n     int // structural variables
	m     int // constraint rows
	nTot  int // n + m: structural then logical columns

	obj  []float64 // original-sense objective, len n
	cost []float64 // minimization-form cost, len nTot (logicals 0)

	// CSC storage of the structural columns. Column j holds entries
	// rowIdx[colPtr[j]:colPtr[j+1]] / vals[...]. Logical column n+i is the
	// implicit identity column e_i and is not stored.
	colPtr []int32
	rowIdx []int32
	vals   []float64

	// The same entries row by row (CSR, ascending columns): the pivot row is
	// summed over the rows its pattern reaches.
	rowPtr []int32
	colIdx []int32
	rowVal []float64

	b []float64 // len m, as written (no sign normalization)

	// Bounds of all nTot variables. Logical bounds encode the relation of
	// their row: LE -> [0,+Inf), GE -> (-Inf,0], EQ -> [0,0].
	lo, up []float64

	// bigM is the magnitude used for artificial bounds on variables whose
	// cost pushes them toward an infinite bound; a variable resting on an
	// artificial bound at the optimum certifies unboundedness.
	bigM float64
}

// Compile freezes a Problem into its immutable matrix form. The Problem can
// keep being mutated afterwards (bounds, RHS, rows) and recompiled; the
// Compiled snapshot is unaffected.
func Compile(p *Problem) (*Compiled, error) {
	n, m := p.NumVars(), len(p.rows)
	c := &Compiled{
		sense:  p.sense,
		n:      n,
		m:      m,
		nTot:   n + m,
		obj:    append([]float64(nil), p.obj...),
		cost:   make([]float64, n+m),
		colPtr: make([]int32, n+1),
		b:      make([]float64, m),
		lo:     make([]float64, n+m),
		up:     make([]float64, n+m),
	}
	sign := 1.0
	if p.sense == Maximize {
		sign = -1
	}
	for j, v := range p.obj {
		c.cost[j] = sign * v
	}

	// Count entries per column, then fill CSC.
	nnz := 0
	for _, r := range p.rows {
		for _, j := range r.Idx {
			c.colPtr[j+1]++
		}
		nnz += len(r.Idx)
	}
	for j := 0; j < n; j++ {
		c.colPtr[j+1] += c.colPtr[j]
	}
	c.rowIdx = make([]int32, nnz)
	c.vals = make([]float64, nnz)
	c.rowPtr = make([]int32, 1, m+1)
	c.colIdx = make([]int32, 0, nnz)
	c.rowVal = make([]float64, 0, nnz)
	next := append([]int32(nil), c.colPtr[:n]...)
	for i, r := range p.rows {
		c.b[i] = r.RHS
		c.colIdx = append(c.colIdx, r.Idx...)
		c.rowVal = append(c.rowVal, r.Val...)
		c.rowPtr = append(c.rowPtr, int32(len(c.colIdx)))
		for k, j := range r.Idx {
			pos := next[j]
			next[j]++
			c.rowIdx[pos] = int32(i)
			c.vals[pos] = r.Val[k]
		}
	}

	maxAbs := 0.0
	note := func(v float64) {
		if !math.IsInf(v, 0) {
			if v = math.Abs(v); v > maxAbs {
				maxAbs = v
			}
		}
	}
	for j := 0; j < n; j++ {
		c.lo[j], c.up[j] = p.lower[j], p.upper[j]
		if c.lo[j] > c.up[j] {
			return nil, ErrInfeasible
		}
		note(c.lo[j])
		note(c.up[j])
	}
	for i, r := range p.rows {
		s := n + i
		switch r.Rel {
		case LE:
			c.lo[s], c.up[s] = 0, math.Inf(1)
		case GE:
			c.lo[s], c.up[s] = math.Inf(-1), 0
		case EQ:
			c.lo[s], c.up[s] = 0, 0
		}
		note(r.RHS)
	}
	c.bigM = math.Max(1e7, 1e6*(1+maxAbs))
	return c, nil
}
