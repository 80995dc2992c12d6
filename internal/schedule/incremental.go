package schedule

import (
	"errors"
	"fmt"
	"slices"

	"wimesh/internal/conflict"
	"wimesh/internal/milp"
	"wimesh/internal/tdma"
	"wimesh/internal/topology"
)

// ErrUnsupportedLink reports a demand on a link outside an Incremental
// model's support set; the caller must rebuild the model (a cold solve).
var ErrUnsupportedLink = errors.New("schedule: demand outside incremental support")

// Incremental is a persistent, mutation-driven form of the window-search ILP
// for throughput problems (no flow delay rows). It is built once over a
// support set of links — every link that may ever carry demand while the
// model lives — and then re-solved for a stream of slightly different demand
// vectors by rewriting only bounds and right-hand sides, never the
// constraint structure. That is exactly the admission-control access
// pattern: one call's delta changes a handful of per-link demands, and the
// re-solve should cost a few dual pivots, not a model rebuild.
//
// Links of the support set that currently carry no demand stay in the model
// as dormant columns: their start variable is unconstrained within the
// window and both ordering rows of every pair touching them are repurposed
// to pin the pair's order binary at zero (-o >= 0 and o >= 0), so dormant
// binaries can never come out of a node relaxation fractional and the
// branch-and-bound never branches on them. Demands outside the support set
// cannot be expressed — Supports reports that, and the caller rebuilds with
// a wider support (the admission engine's cold tier).
type Incremental struct {
	graph *conflict.Graph
	frame tdma.FrameConfig
	links []topology.LinkID // support, ascending
	im    *ilpModel
	inSup []bool // dense by link ID
}

// NewIncremental builds the persistent model over the given support links
// (deduplicated and sorted internally). The initial window is arbitrary;
// every MinSlots call rewrites all window- and demand-dependent data.
func NewIncremental(g *conflict.Graph, support []topology.LinkID, cfg tdma.FrameConfig) (*Incremental, error) {
	if g == nil {
		return nil, fmt.Errorf("%w: nil conflict graph", ErrBadDemand)
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	links := slices.Clone(support)
	slices.Sort(links)
	links = slices.Compact(links)
	inSup := make([]bool, g.NumVertices())
	for _, l := range links {
		if l < 0 || int(l) >= g.NumVertices() {
			return nil, fmt.Errorf("%w: support link %d outside graph of %d links",
				ErrBadDemand, l, g.NumVertices())
		}
		inSup[l] = true
	}
	// Build the structure from a synthetic all-ones problem: it activates
	// every support link, so the model has a start variable per support link
	// and ordering rows for every conflicting support pair.
	synth := &Problem{Graph: g, Demand: make(map[topology.LinkID]int, len(links)), FrameSlots: cfg.DataSlots}
	for _, l := range links {
		synth.Demand[l] = 1
	}
	im, err := buildILP(synth, cfg.DataSlots, false)
	if err != nil {
		return nil, err
	}
	return &Incremental{graph: g, frame: cfg, links: im.links, im: im, inSup: inSup}, nil
}

// SupportSize returns the number of links in the support set.
func (inc *Incremental) SupportSize() int { return len(inc.links) }

// Supports reports whether every positive demand falls inside the support
// set, i.e. whether the model can be retargeted to this demand vector by
// mutation alone.
func (inc *Incremental) Supports(demand map[topology.LinkID]int) bool {
	for l, d := range demand {
		if d > 0 && (l < 0 || int(l) >= len(inc.inSup) || !inc.inSup[l]) {
			return false
		}
	}
	return true
}

// apply retargets the model to (demand, win): start-variable upper bounds,
// the big-M coefficients of both ordering rows per pair, and their
// right-hand sides — vacuous for pairs with a dormant endpoint.
func (inc *Incremental) apply(p *Problem, win int) error {
	winF := float64(win)
	for _, l := range inc.links {
		d := p.Demand[l]
		if d > win {
			// The caller's search never probes below the max single demand;
			// guard anyway so a misuse fails loudly instead of compiling a
			// negative bound.
			return fmt.Errorf("%w: demand %d on link %d exceeds window %d",
				ErrInfeasible, d, l, win)
		}
		up := win - d
		if d > 0 {
			// Class-deadline caps apply only to links that carry demand;
			// dormant columns stay unconstrained within the window. A cap
			// below zero is window-independent infeasibility.
			if up = p.startUpper(l, win); up < 0 {
				return fmt.Errorf("%w: link %d start cap %d below its demand window",
					ErrInfeasible, l, p.StartCap[l])
			}
		}
		if err := inc.im.model.SetUpper(inc.im.startVar[l], float64(up)); err != nil {
			return err
		}
	}
	setRow := func(row int, sa, sb, o milp.VarID, ca, cb, co, rhs float64) error {
		m := inc.im.model
		if err := m.SetCoef(row, sa, ca); err != nil {
			return err
		}
		if err := m.SetCoef(row, sb, cb); err != nil {
			return err
		}
		if err := m.SetCoef(row, o, co); err != nil {
			return err
		}
		return m.SetRHS(row, rhs)
	}
	for i := range inc.im.pairRows {
		pr := &inc.im.pairRows[i]
		sa, sb := inc.im.startVar[pr.a], inc.im.startVar[pr.b]
		da, db := float64(p.Demand[pr.a]), float64(p.Demand[pr.b])
		pr.da = da
		if da <= 0 || db <= 0 {
			// Dormant endpoint: the pair imposes no ordering, so repurpose
			// its rows to pin the order binary at zero (-o >= 0 and o >= 0).
			// Leaving o free with vacuous rows looks equivalent but is
			// poison for the search: a free binary can come out of the node
			// relaxations fractional, and the brancher then burns its budget
			// splitting on variables that constrain nothing.
			if err := setRow(pr.row1, sa, sb, pr.o, 0, 0, -1, 0); err != nil {
				return err
			}
			if err := setRow(pr.row2, sa, sb, pr.o, 0, 0, 1, 0); err != nil {
				return err
			}
			continue
		}
		// s_b - s_a - win*o >= d_a - win ; s_a - s_b + win*o >= d_b.
		if err := setRow(pr.row1, sa, sb, pr.o, -1, 1, -winF, da-winF); err != nil {
			return err
		}
		if err := setRow(pr.row2, sa, sb, pr.o, 1, -1, winF, db); err != nil {
			return err
		}
	}
	inc.im.win = win
	return nil
}

// Repack searches for a schedule of the problem's demands strictly shorter
// than the incumbent window: the solver-driven defragmentation entry point.
// It probes the persistent model over [1, incumbent-1] starting at
// incumbent-1 (release fragmentation typically leaves only a slot or two of
// recoverable slack, so the first probe usually decides), returning the
// minimum window and its witness schedule, or ErrInfeasible when the
// incumbent is already the true minimum. The result is exact: a successful
// Repack proves the returned window minimal for the demand vector.
func (inc *Incremental) Repack(p *Problem, incumbent int, opts milp.Options) (int, *tdma.Schedule, int, int, error) {
	if incumbent <= 1 {
		return 0, nil, 0, 0, fmt.Errorf("%w: incumbent window %d leaves no room below it",
			ErrInfeasible, incumbent)
	}
	return inc.MinSlots(p, incumbent-1, 0, incumbent-1, opts)
}

// MinSlots finds the smallest window in [lo, maxWin] feasible for the
// problem's demands, probing the persistent model by mutation only. The
// search starts at hint — for an admission delta the incumbent window, which
// under monotone growth is usually the answer itself, making the common case
// a single warm re-solve. lo must be a sound lower bound on the minimum
// window (pass 0 when unknown; the clique bound is applied on top), and
// maxWin caps the search (0 = the frame). Returns the window, its schedule,
// the number of integer programs solved, and the total simplex pivots spent.
//
// The result is exactly what the monolithic MinSlots search would return
// clamped to [lo, maxWin]; only the probe path differs. Requires
// len(p.Flows) == 0 and Supports(p.Demand).
func (inc *Incremental) MinSlots(p *Problem, hint, lo, maxWin int, opts milp.Options) (int, *tdma.Schedule, int, int, error) {
	if err := p.Validate(); err != nil {
		return 0, nil, 0, 0, err
	}
	if len(p.Flows) != 0 {
		return 0, nil, 0, 0, fmt.Errorf("%w: incremental model has no flow rows", ErrBadDemand)
	}
	if p.FrameSlots != inc.frame.DataSlots {
		return 0, nil, 0, 0, fmt.Errorf("%w: problem frame %d, model frame %d",
			ErrBadDemand, p.FrameSlots, inc.frame.DataSlots)
	}
	if !inc.Supports(p.Demand) {
		return 0, nil, 0, 0, ErrUnsupportedLink
	}
	if maxWin <= 0 || maxWin > p.FrameSlots {
		maxWin = p.FrameSlots
	}
	lb := p.CliqueLowerBound()
	if lb < 1 {
		lb = 1
	}
	if lo > lb {
		lb = lo
	}
	if lb > maxWin {
		return 0, nil, 0, 0, fmt.Errorf("%w: no window up to %d slots supports the demands",
			ErrInfeasible, maxWin)
	}
	solved, pivots := 0, 0
	probe := func(win int) (*tdma.Schedule, error) {
		if err := inc.apply(p, win); err != nil {
			return nil, err
		}
		solved++
		s, piv, err := inc.im.solveFeasible(p, inc.frame, opts)
		pivots += piv
		return s, err
	}
	win, s, err := searchWindow(probe, hint, lb, maxWin)
	if err != nil {
		return 0, nil, solved, pivots, err
	}
	return win, s, solved, pivots, nil
}
