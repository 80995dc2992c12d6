package conflict

import (
	"errors"
	"fmt"
)

// ConstraintSystem is a system of difference constraints
//
//	x[j] - x[i] <= c
//
// solved by Bellman-Ford over the constraint graph, as used to convert
// transmission orders into concrete TDMA slot assignments (Djukic-Valaee).
// Variables are dense indices in [0, N).
type ConstraintSystem struct {
	n     int
	edges []diffEdge
}

type diffEdge struct {
	from, to int // constraint x[to] - x[from] <= weight
	weight   float64
}

// ErrInfeasible reports that the constraint system has no solution (the
// constraint graph contains a negative cycle).
var ErrInfeasible = errors.New("conflict: constraint system infeasible")

// NewConstraintSystem returns a system over n variables.
func NewConstraintSystem(n int) *ConstraintSystem {
	return &ConstraintSystem{n: n}
}

// AddLE adds the constraint x[j] - x[i] <= c.
func (cs *ConstraintSystem) AddLE(j, i int, c float64) error {
	if i < 0 || i >= cs.n || j < 0 || j >= cs.n {
		return fmt.Errorf("conflict: constraint variable out of range (i=%d j=%d n=%d)", i, j, cs.n)
	}
	cs.edges = append(cs.edges, diffEdge{from: i, to: j, weight: c})
	return nil
}

// AddGE adds the constraint x[j] - x[i] >= c (equivalently x[i]-x[j] <= -c).
func (cs *ConstraintSystem) AddGE(j, i int, c float64) error {
	return cs.AddLE(i, j, -c)
}

// SetBound re-tightens the bound of the k-th constraint added (0-based,
// counting AddLE and AddGE calls alike): the constraint keeps its variable
// pair and becomes x[j] - x[i] <= c in the orientation it was added with
// (for a constraint added via AddGE, pass -c to express x[j] - x[i] >= c).
// It lets callers reuse one system across repeated solves that differ only
// in a few bounds — the binary search of MinWindowForOrder re-tightens the
// per-link window bounds instead of rebuilding all pair constraints.
func (cs *ConstraintSystem) SetBound(k int, c float64) error {
	if k < 0 || k >= len(cs.edges) {
		return fmt.Errorf("conflict: constraint %d out of range (have %d)", k, len(cs.edges))
	}
	cs.edges[k].weight = c
	return nil
}

// Solve runs Bellman-Ford from a virtual source connected to every variable
// with weight 0 and returns a feasible assignment (the shortest-path
// distances), or ErrInfeasible wrapped with a witness cycle description if a
// negative cycle exists.
//
// The returned assignment is the component-wise maximum solution with all
// values <= 0; callers typically shift it so the minimum is 0.
func (cs *ConstraintSystem) Solve() ([]float64, error) {
	dist := make([]float64, cs.n)
	pred := make([]int, cs.n)
	for i := range pred {
		pred[i] = -1
	}
	// Virtual source initialization: dist already 0 everywhere.
	var lastRelaxed int
	for iter := 0; iter < cs.n; iter++ {
		lastRelaxed = -1
		for _, e := range cs.edges {
			if d := dist[e.from] + e.weight; d < dist[e.to]-1e-12 {
				dist[e.to] = d
				pred[e.to] = e.from
				lastRelaxed = e.to
			}
		}
		if lastRelaxed == -1 {
			return dist, nil
		}
	}
	// A vertex relaxed on the n-th pass lies on or is reachable from a
	// negative cycle; walk predecessors to find a vertex on the cycle.
	v := lastRelaxed
	for i := 0; i < cs.n; i++ {
		v = pred[v]
	}
	cycle := []int{v}
	for u := pred[v]; u != v; u = pred[u] {
		cycle = append(cycle, u)
	}
	return nil, fmt.Errorf("%w: negative cycle through %d variables (witness var %d)", ErrInfeasible, len(cycle), v)
}
