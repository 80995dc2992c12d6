package milp

import (
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/solve.golden from this run")

// TestSolveGolden pins the branch-and-bound search byte for byte: for seeded
// random models and persistent ordering models retargeted by mutation, each
// solved with FirstFeasible off and on and at a node budget of 3 as well as
// the default, one line records X, the objective, Optimal, the node and
// pivot counts, or the error class. A change to the search order, the
// pruning or the tie-break moves a line; re-record with -update-golden only
// for a deliberate one and review the diff.
func TestSolveGolden(t *testing.T) {
	var sb strings.Builder
	record := func(what string, m *Model) {
		for _, ff := range []bool{false, true} {
			for _, maxNodes := range []int{3, 0} {
				sol, err := m.Solve(Options{FirstFeasible: ff, MaxNodes: maxNodes})
				fmt.Fprintf(&sb, "%s ff=%v max=%d: ", what, ff, maxNodes)
				switch {
				case errors.Is(err, ErrInfeasible):
					sb.WriteString("infeasible\n")
				case errors.Is(err, ErrLimit):
					sb.WriteString("limit\n")
				case err != nil:
					t.Fatalf("%s: %v", what, err)
				default:
					fmt.Fprintf(&sb, "X=%v obj=%v optimal=%v nodes=%d pivots=%d\n",
						sol.X, sol.Objective, sol.Optimal, sol.Nodes, sol.Pivots)
				}
			}
		}
	}
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 80; trial++ {
		record(fmt.Sprintf("random %d", trial), randomModel(t, rng))
	}
	for trial := 0; trial < 25; trial++ {
		win, cost, pairs, demands := randomOrdering(rng, 3)
		om := newOrderingModel(t, win, cost, pairs, false)
		for r, d := range demands {
			om.setDemand(t, d)
			record(fmt.Sprintf("ordering %d round %d", trial, r), om.m)
		}
	}

	path := filepath.Join("testdata", "solve.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := sb.String(); got != string(want) {
		t.Fatalf("solves differ from %s:\n got\n%s\n want\n%s", path, got, want)
	}
}
