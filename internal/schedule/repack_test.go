package schedule

import (
	"errors"
	"testing"

	"wimesh/internal/milp"
	"wimesh/internal/topology"
)

// TestRepack pins the search a defragmentation pass runs: capped strictly
// below an incumbent above the true minimum it re-packs down to exactly the
// minimum with a valid witness, and below an incumbent at the minimum it
// proves ErrInfeasible (nothing shorter exists).
func TestRepack(t *testing.T) {
	g, support, cfg := incrementalFixture(t, 6, 16)
	inc, err := NewIncremental(supportProblem(g, support, cfg, nil), cfg)
	if err != nil {
		t.Fatal(err)
	}
	opts := milp.Options{MaxNodes: 50_000}
	demand := map[topology.LinkID]int{support[0]: 3, support[1]: 2}
	p := &Problem{Graph: g, Demand: demand, FrameSlots: cfg.DataSlots}

	min, _, _, _, err := inc.MinSlots(p, 0, 0, 0, opts)
	if err != nil {
		t.Fatalf("MinSlots: %v", err)
	}

	// A fragmented incumbent: the re-pack must land exactly on the minimum.
	win, sched, solved, _, err := inc.MinSlots(p, min+2, 0, min+2, opts)
	if err != nil {
		t.Fatalf("Repack from %d: %v", min+3, err)
	}
	if win != min {
		t.Fatalf("Repack window %d, want the minimum %d", win, min)
	}
	if solved < 1 {
		t.Fatalf("Repack solved %d programs, want at least 1", solved)
	}
	if err := p.checkSchedule(sched); err != nil {
		t.Fatalf("Repack witness invalid: %v", err)
	}

	// Incumbent already minimal: strictly-shorter search is infeasible.
	if _, _, _, _, err := inc.MinSlots(p, min-1, 0, min-1, opts); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("Repack below the minimum: err = %v, want ErrInfeasible", err)
	}
}
