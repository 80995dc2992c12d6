package schedule

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"wimesh/internal/conflict"
	"wimesh/internal/milp"
	"wimesh/internal/tdma"
	"wimesh/internal/topology"
)

// ErrUnsupportedLink reports a demand on a link outside an Incremental
// model's support set; Cover widens the support.
var ErrUnsupportedLink = errors.New("schedule: demand outside incremental support")

// Incremental is the integer program of the Djukic-Valaee optimization, kept
// as one persistent model:
//
//	s_l in [0, win-d_l]                         (start slots, integer)
//	o_ab in {0,1}                               (transmission order)
//	s_b - s_a >= d_a - win*(1-o_ab)             (a before b when o_ab=1)
//	s_a - s_b >= d_b - win*o_ab                 (b before a when o_ab=0)
//	g_fk = s_(k+1) - s_k - d_k + F*w_fk         (per-flow hop gaps)
//	0 <= g_fk <= F-1,  w_fk in {0,1}            (F = frame slots: wrap cost)
//	sum_k g_fk <= bound_f - sum_k d_k           (delay bounds, if any)
//	D >= sum_k g_fk + sum_k d_k                 (when minimizing max delay)
//
// The structure — which variables and rows exist — is laid down once, over a
// support set of links (every link that may carry demand while the model
// lives) and a fixed list of flows; apply then writes every window- and
// demand-dependent number, so a window search or a stream of slightly
// different demand vectors re-solves the same model by mutation. That is the
// admission-control access pattern: one call's delta changes a handful of
// per-link demands, and the re-solve should cost a few dual pivots, not a
// model rebuild.
//
// Links of the support set that currently carry no demand stay in the model
// as dormant columns: their start variable is unconstrained within the
// window and both ordering rows of every pair touching them are written as
// all-zero rows, which the relaxation leaves out (see package milp). The
// pair's order binary then sits in no row at zero cost, rests at zero, and
// is never branched on — exactly as rows pinning it at zero would hold it,
// pivot for pivot, without their rows in every node's basis. A
// demand outside the support set cannot be expressed: MinSlots fails with
// ErrUnsupportedLink until Cover has widened the support.
type Incremental struct {
	graph *conflict.Graph
	frame tdma.FrameConfig
	model *milp.Model
	win   int               // window the model currently encodes
	links []topology.LinkID // support, ascending; do not mutate
	start map[topology.LinkID]milp.VarID
	pairs []pairRows
	// flows are fixed at construction; flowRows runs parallel to them.
	flows    []FlowRequirement
	flowRows []flowRows
	delayVar milp.VarID // the min-max delay objective D; -1 without it
}

// pairRows records a conflicting support pair a < b: its order binary o
// (1 means a before b) and where its two ordering rows live. row1 is
// s_b - s_a - win*o >= d_a - win and row2 is s_a - s_b + win*o >= d_b.
type pairRows struct {
	a, b       topology.LinkID
	sa, sb, o  milp.VarID
	row1, row2 int
}

// flowRows records the rows of one flow: the gap equation of each hop, the
// delay-bound row and the min-max delay row (-1 when the flow has none).
type flowRows struct {
	gap          []int
	bound, delay int
}

// NewIncremental builds the persistent model of problem p: its support is
// p's active links and its flow rows are p's flows.
func NewIncremental(p *Problem, cfg tdma.FrameConfig) (*Incremental, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return newModel(p, cfg, false)
}

// supportProblem is the synthetic all-ones problem whose active links are
// exactly the support set: the problem a model over that support is built
// from.
func supportProblem(g *conflict.Graph, support []topology.LinkID, cfg tdma.FrameConfig, flows []FlowRequirement) *Problem {
	p := &Problem{Graph: g, Demand: make(map[topology.LinkID]int, len(support)), FrameSlots: cfg.DataSlots, Flows: flows}
	for _, l := range support {
		p.Demand[l] = 1
	}
	return p
}

// newModel lays down the structure of the program for problem p: a start
// variable per active link of p (the support), an order binary and two
// ordering rows per conflicting support pair, then the objective variable D
// when minimizing the maximum delay, then the rows of p's flows. Every
// number that depends on the window or the demands is a placeholder until
// apply writes it.
func newModel(p *Problem, cfg tdma.FrameConfig, minimizeDelay bool) (*Incremental, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	inc := &Incremental{
		graph:    p.Graph,
		frame:    cfg,
		model:    milp.NewModel(milp.Minimize),
		links:    p.activeLinks(),
		start:    make(map[topology.LinkID]milp.VarID),
		flows:    p.Flows,
		delayVar: -1,
	}
	for _, l := range inc.links {
		v, err := inc.model.AddVar(fmt.Sprintf("s_%d", l), milp.Integer, float64(p.FrameSlots), 0)
		if err != nil {
			return nil, err
		}
		inc.start[l] = v
	}
	pairs := p.conflictingPairs()
	inc.pairs = make([]pairRows, 0, len(pairs))
	for _, pair := range pairs {
		if err := inc.addPair(pair[0], pair[1]); err != nil {
			return nil, err
		}
	}
	if minimizeDelay {
		v, err := inc.model.AddVar("D", milp.Integer, math.Inf(1), 1)
		if err != nil {
			return nil, err
		}
		inc.delayVar = v
	}
	for fi, f := range p.Flows {
		if err := inc.addFlow(fi, f); err != nil {
			return nil, err
		}
	}
	return inc, nil
}

// addPair adds the order binary of the conflicting support pair a < b and
// its two ordering rows over (s_a, s_b, o).
func (inc *Incremental) addPair(a, b topology.LinkID) error {
	o, err := inc.model.AddVar(fmt.Sprintf("o_%d_%d", a, b), milp.Binary, 1, 0)
	if err != nil {
		return err
	}
	pr := pairRows{a: a, b: b, sa: inc.start[a], sb: inc.start[b], o: o}
	ids := []milp.VarID{pr.sa, pr.sb, o}
	if pr.row1, err = inc.model.AddConstraintIdx(ids, []float64{-1, 1, -1}, milp.GE, 0); err != nil {
		return err
	}
	if pr.row2, err = inc.model.AddConstraintIdx(ids, []float64{1, -1, 1}, milp.GE, 0); err != nil {
		return err
	}
	inc.pairs = append(inc.pairs, pr)
	return nil
}

// addFlow adds the delay rows of flow fi: a gap and a wrap variable with
// their gap equation per hop, the delay-bound row when the flow has a bound,
// and the D row when the model minimizes the maximum delay.
func (inc *Incremental) addFlow(fi int, f FlowRequirement) error {
	m, frame := inc.model, float64(inc.frame.DataSlots)
	fr := flowRows{bound: -1, delay: -1}
	gapVars := make([]milp.VarID, 0, len(f.Path))
	for k := 0; k+1 < len(f.Path); k++ {
		sIn, sOut := inc.start[f.Path[k]], inc.start[f.Path[k+1]]
		g, err := m.AddVar(fmt.Sprintf("g_%d_%d", fi, k), milp.Integer, frame-1, 0)
		if err != nil {
			return err
		}
		w, err := m.AddVar(fmt.Sprintf("w_%d_%d", fi, k), milp.Binary, 1, 0)
		if err != nil {
			return err
		}
		// g = s_out - s_in - d_in + F*w. Degenerate paths may relay on the
		// same link in and out; keep the single +1 coefficient the folded
		// map form produced.
		ids, coefs := []milp.VarID{g, sOut, sIn, w}, []float64{1, -1, 1, -frame}
		if sOut == sIn {
			ids, coefs = []milp.VarID{g, sIn, w}, []float64{1, 1, -frame}
		}
		row, err := m.AddConstraintIdx(ids, coefs, milp.EQ, 0)
		if err != nil {
			return err
		}
		fr.gap = append(fr.gap, row)
		gapVars = append(gapVars, g)
	}
	// sum g <= bound - sum d, and D >= sum g + sum d  =>  sum g - D <= -sum d.
	coefs := make([]float64, len(gapVars)+1)
	for i := range coefs {
		coefs[i] = 1
	}
	var err error
	if f.BoundSlots > 0 && len(gapVars) > 0 {
		if fr.bound, err = m.AddConstraintIdx(gapVars, coefs[1:], milp.LE, 0); err != nil {
			return err
		}
	}
	if inc.delayVar >= 0 && len(f.Path) > 0 {
		coefs[0] = -1
		ids := append([]milp.VarID{inc.delayVar}, gapVars...)
		if fr.delay, err = m.AddConstraintIdx(ids, coefs, milp.LE, 0); err != nil {
			return err
		}
	}
	inc.flowRows = append(inc.flowRows, fr)
	return nil
}

// Cover makes the support set include every link with positive demand. A
// model that already does is left alone; otherwise it is rebuilt over the
// union of its support and those links — the same flows, the same objective —
// and rebuilt reports that. A solve is a function of the model's rows alone,
// so the rebuilt model answers exactly as one built over the union from the
// start.
func (inc *Incremental) Cover(demand map[topology.LinkID]int) (rebuilt bool, err error) {
	var extra []topology.LinkID
	for l, d := range demand {
		if _, ok := inc.start[l]; d > 0 && !ok {
			extra = append(extra, l)
		}
	}
	if len(extra) == 0 {
		return false, nil
	}
	union := append(extra, inc.links...)
	grown, err := newModel(supportProblem(inc.graph, union, inc.frame, inc.flows), inc.frame, inc.delayVar >= 0)
	if err != nil {
		return false, err
	}
	*inc = *grown
	return true, nil
}

// apply retargets the model to (p's demands, win): the start-variable upper
// bounds, the coefficients and right-hand sides of both ordering rows per
// pair — all zero for pairs with a dormant endpoint — and the
// demand-dependent right-hand sides of the flow rows.
func (inc *Incremental) apply(p *Problem, win int) error {
	m, winF := inc.model, float64(win)
	for _, l := range inc.links {
		// The start bound is the window bound win-demand, tightened by the
		// link's absolute StartCap when it carries demand (dormant columns
		// stay unconstrained within the window). A cap below zero is
		// window-independent infeasibility.
		d := p.Demand[l]
		up := win - d
		if sc, ok := p.StartCap[l]; ok && d > 0 && sc < up {
			up = sc
		}
		if up < 0 {
			return fmt.Errorf("%w: link %d (demand %d) has no start slot in window %d under its start cap",
				ErrInfeasible, inc.graph.Origin(l), d, win)
		}
		if err := m.SetUpper(inc.start[l], float64(up)); err != nil {
			return err
		}
	}
	// setRow writes one ordering row: the coefficients of s_a, s_b and o,
	// then the right-hand side.
	setRow := func(row int, pr *pairRows, c [4]float64) error {
		for k, v := range [3]milp.VarID{pr.sa, pr.sb, pr.o} {
			if err := m.SetCoef(row, v, c[k]); err != nil {
				return err
			}
		}
		return m.SetRHS(row, c[3])
	}
	for i := range inc.pairs {
		pr := &inc.pairs[i]
		da, db := float64(p.Demand[pr.a]), float64(p.Demand[pr.b])
		// s_b - s_a - win*o >= d_a - win ; s_a - s_b + win*o >= d_b.
		row1, row2 := [4]float64{-1, 1, -winF, da - winF}, [4]float64{1, -1, winF, db}
		if da <= 0 || db <= 0 {
			// Dormant endpoint: the pair imposes no ordering, so both rows
			// become all-zero rows, outside the relaxation. o must not stay
			// in a vacuous row instead: free there, it could come out of the
			// node relaxations fractional and be branched on for nothing.
			row1, row2 = [4]float64{}, [4]float64{}
		}
		if err := setRow(pr.row1, pr, row1); err != nil {
			return err
		}
		if err := setRow(pr.row2, pr, row2); err != nil {
			return err
		}
	}
	for fi, f := range inc.flows {
		fr, sumD := &inc.flowRows[fi], 0
		for _, l := range f.Path {
			sumD += p.Demand[l]
		}
		for k, row := range fr.gap {
			if err := m.SetRHS(row, -float64(p.Demand[f.Path[k]])); err != nil {
				return err
			}
		}
		if fr.bound >= 0 {
			if err := m.SetRHS(fr.bound, float64(f.BoundSlots-sumD)); err != nil {
				return err
			}
		} else if f.BoundSlots > 0 && sumD > f.BoundSlots {
			return fmt.Errorf("%w: single-hop flow %d demand %d exceeds bound %d",
				ErrInfeasible, fi, sumD, f.BoundSlots)
		}
		if fr.delay >= 0 {
			if err := m.SetRHS(fr.delay, -float64(sumD)); err != nil {
				return err
			}
		}
	}
	inc.win = win
	return nil
}

// solve runs the search on the model as apply left it and decodes and
// validates the schedule. The solution is nil when the search found none.
func (inc *Incremental) solve(p *Problem, opts milp.Options) (*milp.Solution, *tdma.Schedule, error) {
	sol, err := inc.model.Solve(opts)
	if errors.Is(err, milp.ErrInfeasible) {
		return nil, nil, fmt.Errorf("%w: window of %d slots", ErrInfeasible, inc.win)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("solve window %d: %w", inc.win, err)
	}
	// The program's data are integral, so its starts are integral up to
	// floating-point noise.
	s, err := tdma.NewSchedule(inc.frame)
	for i := 0; err == nil && i < len(inc.links); i++ {
		l := inc.links[i]
		if start := sol.X[inc.start[l]]; p.Demand[l] > 0 {
			if err = s.Add(tdma.Assignment{Link: l, Start: int(math.Round(start)), Length: p.Demand[l]}); err != nil {
				err = fmt.Errorf("link %d start %g: %w", p.Graph.Origin(l), start, err)
			}
		}
	}
	if err == nil {
		err = p.checkSchedule(s)
	}
	if err != nil {
		return sol, nil, err
	}
	return sol, s, nil
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
// Window feasibility is monotone — a schedule feasible at window w stays
// feasible at w+1 (the start-variable bounds and order big-Ms only relax) —
// so the result is exactly what a linear scan up from the lower bound would
// return, clamped to [lo, maxWin]; only the probe path differs (see
// searchWindow). p must carry the flows the model was built with, and every
// positive demand must lie in the support (ErrUnsupportedLink otherwise).
func (inc *Incremental) MinSlots(p *Problem, hint, lo, maxWin int, opts milp.Options) (int, *tdma.Schedule, int, int, error) {
	if err := p.Validate(); err != nil {
		return 0, nil, 0, 0, err
	}
	if !slices.EqualFunc(p.Flows, inc.flows, func(a, b FlowRequirement) bool {
		return a.BoundSlots == b.BoundSlots && slices.Equal(a.Path, b.Path)
	}) {
		return 0, nil, 0, 0, fmt.Errorf("%w: problem flows differ from the model's flow rows", ErrBadDemand)
	}
	if p.FrameSlots != inc.frame.DataSlots {
		return 0, nil, 0, 0, fmt.Errorf("%w: frame config has %d slots, problem says %d",
			ErrBadDemand, inc.frame.DataSlots, p.FrameSlots)
	}
	for l, d := range p.Demand {
		if _, ok := inc.start[l]; d > 0 && !ok {
			return 0, nil, 0, 0, ErrUnsupportedLink
		}
	}
	if maxWin <= 0 || maxWin > p.FrameSlots {
		maxWin = p.FrameSlots
	}
	lb := max(p.CliqueLowerBound(), lo, 1)
	if lb > maxWin {
		return 0, nil, 0, 0, fmt.Errorf("%w: no window up to %d slots supports the demands",
			ErrInfeasible, maxWin)
	}
	opts.FirstFeasible = true
	solved, pivots := 0, 0
	probe := func(win int) (*tdma.Schedule, error) {
		if err := inc.apply(p, win); err != nil {
			return nil, err
		}
		solved++
		sol, s, err := inc.solve(p, opts)
		if sol != nil {
			pivots += sol.Pivots
		}
		return s, err
	}
	win, s, err := searchWindow(probe, hint, lb, maxWin)
	if err != nil {
		return 0, nil, solved, pivots, err
	}
	return win, s, solved, pivots, nil
}
