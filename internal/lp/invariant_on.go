//go:build lpdebug

package lp

import (
	"fmt"
	"math"
)

// debugCheck validates the solver's terminal state when built with
// -tags lpdebug: basis/status/position-index consistency, B^-1 correctness,
// its sparsity pattern, primal feasibility of the basis, bounded-variable
// statuses resting on finite bounds, and dual-feasible reduced-cost signs.
// It is wired into `make check` via the lpdebug target.
func debugCheck(c *Compiled, s *Solver) error {
	m, n, nTot := c.m, c.n, c.nTot

	// Basis, position index, and statuses agree.
	for i := 0; i < m; i++ {
		j := s.basis[i]
		if j < 0 || int(j) >= nTot {
			return fmt.Errorf("lpdebug: basis[%d]=%d out of range", i, j)
		}
		if s.status[j] != stBasic {
			return fmt.Errorf("lpdebug: basis[%d]=%d has nonbasic status %d", i, j, s.status[j])
		}
		if s.rowOf[j] != int32(i) {
			return fmt.Errorf("lpdebug: rowOf[%d]=%d, want %d", j, s.rowOf[j], i)
		}
	}
	nBasic := 0
	for j := 0; j < nTot; j++ {
		switch s.status[j] {
		case stBasic:
			nBasic++
		case stLower:
			if math.IsInf(s.lo[j], -1) {
				return fmt.Errorf("lpdebug: var %d at infinite lower bound", j)
			}
			if s.rowOf[j] != -1 {
				return fmt.Errorf("lpdebug: nonbasic var %d has rowOf %d", j, s.rowOf[j])
			}
		case stUpper:
			if math.IsInf(s.up[j], 1) {
				return fmt.Errorf("lpdebug: var %d at infinite upper bound", j)
			}
			if s.rowOf[j] != -1 {
				return fmt.Errorf("lpdebug: nonbasic var %d has rowOf %d", j, s.rowOf[j])
			}
		case stFree:
			if !math.IsInf(s.lo[j], -1) || !math.IsInf(s.up[j], 1) {
				return fmt.Errorf("lpdebug: free var %d has a finite bound [%g,%g]", j, s.lo[j], s.up[j])
			}
		default:
			return fmt.Errorf("lpdebug: var %d has bad status %d", j, s.status[j])
		}
	}
	if nBasic != m {
		return fmt.Errorf("lpdebug: %d basic variables, want %d", nBasic, m)
	}

	// binv really is the inverse of the basis matrix: check B^-1 B = I
	// column by column (logical basis columns are e_i).
	const invTol = 1e-6
	for k := 0; k < m; k++ {
		j := int(s.basis[k])
		for i := 0; i < m; i++ {
			acc := 0.0
			if j < n {
				row := s.binv[i*m : i*m+m]
				for e := c.colPtr[j]; e < c.colPtr[j+1]; e++ {
					acc += row[c.rowIdx[e]] * c.vals[e]
				}
			} else {
				acc = s.binv[i*m+(j-n)]
			}
			want := 0.0
			if i == k {
				want = 1
			}
			if math.Abs(acc-want) > invTol {
				return fmt.Errorf("lpdebug: (B^-1 B)[%d][%d] = %g, want %g", i, k, acc, want)
			}
		}
	}

	// The pattern, unless dropped, covers every non-zero of B^-1, its column
	// bitmaps are exactly the transpose of its row bitmaps, and nnz counts it.
	nnz := 0
	for i := 0; i < m && !s.dense; i++ {
		for k := 0; k < m; k++ {
			inRow, inCol := s.rowPat[i*s.w+k>>6]>>(k&63)&1, s.colPat[k*s.w+i>>6]>>(i&63)&1
			if inRow != inCol || (inRow == 0 && s.binv[i*m+k] != 0) {
				return fmt.Errorf("lpdebug: B^-1[%d][%d] = %g with row bit %d, column bit %d", i, k, s.binv[i*m+k], inRow, inCol)
			}
			nnz += int(inRow)
		}
	}
	if !s.dense && nnz != s.nnz {
		return fmt.Errorf("lpdebug: the pattern has %d bits, nnz = %d", nnz, s.nnz)
	}

	// Terminal primal feasibility: basic values within bounds.
	for i := 0; i < m; i++ {
		j := s.basis[i]
		if s.xB[i] < s.lo[j]-1e-6 || s.xB[i] > s.up[j]+1e-6 {
			return fmt.Errorf("lpdebug: basic var %d value %g outside [%g,%g]",
				j, s.xB[i], s.lo[j], s.up[j])
		}
	}

	// Dual feasibility: reduced-cost signs match statuses.
	for j := 0; j < nTot; j++ {
		switch s.status[j] {
		case stLower:
			if s.d[j] < -1e-6 {
				return fmt.Errorf("lpdebug: var %d at lower with d=%g < 0", j, s.d[j])
			}
		case stUpper:
			if s.d[j] > 1e-6 {
				return fmt.Errorf("lpdebug: var %d at upper with d=%g > 0", j, s.d[j])
			}
		case stFree:
			if math.Abs(s.d[j]) > 1e-6 {
				return fmt.Errorf("lpdebug: free var %d with d=%g != 0", j, s.d[j])
			}
		}
	}
	return nil
}
