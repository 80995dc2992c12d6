package schedule

import (
	"errors"
	"fmt"
	"math"
	"time"

	"wimesh/internal/milp"
	"wimesh/internal/tdma"
	"wimesh/internal/topology"
)

// ilpModel carries the MILP formulation of the scheduling problem plus the
// variable handles needed to decode solutions. The model is built once per
// problem; setWindow retargets it to another window by mutating only the
// window-dependent bounds, coefficients, and right-hand sides (everything
// else — the conflict pairs, flow gap rows, delay bounds — is
// window-independent), so a window search never rebuilds the formulation.
type ilpModel struct {
	model    *milp.Model
	links    []topology.LinkID // cached active-link view; do not mutate
	numLinks int               // dense link-ID universe for decoded orders
	startVar map[topology.LinkID]milp.VarID
	pairVar  map[[2]topology.LinkID]milp.VarID // a<b: 1 means a before b
	delayVar milp.VarID                        // valid when minimizeDelay

	win      int // window the model currently encodes
	pairRows []pairRowRef
}

// pairRowRef records where a conflicting pair's two ordering rows live so
// setWindow can rewrite their big-M terms: row1 is
// s_b - s_a - win*o >= d_a - win and row2 is s_a - s_b + win*o >= d_b.
// The endpoint links a and b let the incremental model re-derive both
// right-hand sides when demands change between solves (incremental.go).
type pairRowRef struct {
	o          milp.VarID
	row1, row2 int
	da         float64
	a, b       topology.LinkID
}

// buildILP constructs the integer program of the Djukic-Valaee optimization
// at window winSlots:
//
//	s_l in [0, win-d_l]                         (start slots, integer)
//	o_ab in {0,1}                               (transmission order)
//	s_b - s_a >= d_a - win*(1-o_ab)             (a before b when o_ab=1)
//	s_a - s_b >= d_b - win*o_ab                 (b before a when o_ab=0)
//	g_fk = s_(k+1) - s_k - d_k + F*w_fk         (per-flow hop gaps)
//	0 <= g_fk <= F-1,  w_fk in {0,1}            (F = frame slots: wrap cost)
//	sum_k g_fk <= bound_f - sum_k d_k           (delay bounds, if any)
//	D >= sum_k g_fk + sum_k d_k                 (when minimizing max delay)
func buildILP(p *Problem, winSlots int, minimizeDelay bool) (*ilpModel, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if winSlots <= 0 || winSlots > p.FrameSlots {
		return nil, fmt.Errorf("%w: window %d outside frame of %d slots",
			ErrBadDemand, winSlots, p.FrameSlots)
	}
	m := milp.NewModel(milp.Minimize)
	im := &ilpModel{
		model:    m,
		links:    p.activeLinks(),
		numLinks: p.Graph.NumVertices(),
		startVar: make(map[topology.LinkID]milp.VarID),
		pairVar:  make(map[[2]topology.LinkID]milp.VarID),
		win:      winSlots,
	}
	for _, l := range im.links {
		up := p.startUpper(l, winSlots)
		if up < 0 {
			return nil, fmt.Errorf("%w: link %d start cap %d below its demand window",
				ErrInfeasible, l, p.StartCap[l])
		}
		v, err := m.AddVar(fmt.Sprintf("s_%d", l), milp.Integer, float64(up), 0)
		if err != nil {
			return nil, err
		}
		im.startVar[l] = v
	}
	win := float64(winSlots)
	pairs := p.conflictingPairs()
	im.pairRows = make([]pairRowRef, 0, len(pairs))
	for _, pair := range pairs {
		a, b := pair[0], pair[1]
		o, err := m.AddVar(fmt.Sprintf("o_%d_%d", a, b), milp.Binary, 1, 0)
		if err != nil {
			return nil, err
		}
		im.pairVar[pair] = o
		sa, sb := im.startVar[a], im.startVar[b]
		da, db := float64(p.Demand[a]), float64(p.Demand[b])
		// s_b - s_a + win*(1-o) >= d_a  =>  s_b - s_a - win*o >= d_a - win.
		r1, err := m.AddConstraintIdx([]milp.VarID{sa, sb, o}, []float64{-1, 1, -win}, milp.GE, da-win)
		if err != nil {
			return nil, err
		}
		// s_a - s_b + win*o >= d_b.
		r2, err := m.AddConstraintIdx([]milp.VarID{sa, sb, o}, []float64{1, -1, win}, milp.GE, db)
		if err != nil {
			return nil, err
		}
		im.pairRows = append(im.pairRows, pairRowRef{o: o, row1: r1, row2: r2, da: da, a: a, b: b})
	}

	frame := float64(p.FrameSlots)
	var delayVar milp.VarID
	if minimizeDelay {
		v, err := m.AddVar("D", milp.Integer, math.Inf(1), 1)
		if err != nil {
			return nil, err
		}
		delayVar = v
		im.delayVar = v
	}
	ids := make([]milp.VarID, 0, 8)
	coefs := make([]float64, 0, 8)
	for fi, f := range p.Flows {
		if len(f.Path) < 1 {
			continue
		}
		sumD := 0
		for _, l := range f.Path {
			sumD += p.Demand[l]
		}
		gapVars := make([]milp.VarID, 0, len(f.Path)-1)
		for k := 0; k+1 < len(f.Path); k++ {
			lIn, lOut := f.Path[k], f.Path[k+1]
			g, err := m.AddVar(fmt.Sprintf("g_%d_%d", fi, k), milp.Integer, frame-1, 0)
			if err != nil {
				return nil, err
			}
			w, err := m.AddVar(fmt.Sprintf("w_%d_%d", fi, k), milp.Binary, 1, 0)
			if err != nil {
				return nil, err
			}
			// g = s_out - s_in - d_in + F*w. Degenerate paths may relay on
			// the same link in and out; keep the single +1 coefficient the
			// folded map form produced.
			ids, coefs = ids[:0], coefs[:0]
			if im.startVar[lOut] == im.startVar[lIn] {
				ids = append(ids, g, im.startVar[lIn], w)
				coefs = append(coefs, 1, 1, -frame)
			} else {
				ids = append(ids, g, im.startVar[lOut], im.startVar[lIn], w)
				coefs = append(coefs, 1, -1, 1, -frame)
			}
			if _, err := m.AddConstraintIdx(ids, coefs, milp.EQ, -float64(p.Demand[lIn])); err != nil {
				return nil, err
			}
			gapVars = append(gapVars, g)
		}
		if f.BoundSlots > 0 && len(gapVars) > 0 {
			if _, err := m.AddConstraintIdx(gapVars, ones(len(gapVars)), milp.LE, float64(f.BoundSlots-sumD)); err != nil {
				return nil, err
			}
		}
		if f.BoundSlots > 0 && len(gapVars) == 0 && sumD > f.BoundSlots {
			return nil, fmt.Errorf("%w: single-hop flow %d demand %d exceeds bound %d",
				ErrInfeasible, fi, sumD, f.BoundSlots)
		}
		if minimizeDelay && len(f.Path) > 0 {
			// D >= sum g + sumD  =>  sum g - D <= -sumD.
			ids, coefs = ids[:0], coefs[:0]
			ids = append(ids, delayVar)
			coefs = append(coefs, -1)
			for _, g := range gapVars {
				ids = append(ids, g)
				coefs = append(coefs, 1)
			}
			if _, err := m.AddConstraintIdx(ids, coefs, milp.LE, -float64(sumD)); err != nil {
				return nil, err
			}
		}
	}
	return im, nil
}

func ones(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = 1
	}
	return out
}

// setWindow retargets the model to another window by rewriting the
// window-dependent pieces in place: the start-variable upper bounds and the
// big-M order rows of every conflicting pair.
func (im *ilpModel) setWindow(p *Problem, winSlots int) error {
	if winSlots == im.win {
		return nil
	}
	for _, l := range im.links {
		if err := im.model.SetUpper(im.startVar[l], float64(p.startUpper(l, winSlots))); err != nil {
			return err
		}
	}
	win := float64(winSlots)
	for _, pr := range im.pairRows {
		if err := im.model.SetCoef(pr.row1, pr.o, -win); err != nil {
			return err
		}
		if err := im.model.SetRHS(pr.row1, pr.da-win); err != nil {
			return err
		}
		if err := im.model.SetCoef(pr.row2, pr.o, win); err != nil {
			return err
		}
	}
	im.win = winSlots
	return nil
}

// solveFeasible runs the feasibility search at the model's current window
// and decodes + validates the schedule. The second return is the simplex
// pivot count of the search (0 on the error paths that never reach a solve).
func (im *ilpModel) solveFeasible(p *Problem, cfg tdma.FrameConfig, opts milp.Options) (*tdma.Schedule, int, error) {
	opts.FirstFeasible = true
	sol, err := im.model.Solve(opts)
	if errors.Is(err, milp.ErrInfeasible) {
		return nil, 0, fmt.Errorf("%w: window of %d slots", ErrInfeasible, im.win)
	}
	if err != nil {
		return nil, 0, fmt.Errorf("solve window %d: %w", im.win, err)
	}
	s, err := im.decodeSchedule(p, sol.X, cfg)
	if err != nil {
		return nil, sol.Pivots, err
	}
	if err := p.checkSchedule(s); err != nil {
		return nil, sol.Pivots, err
	}
	return s, sol.Pivots, nil
}

// decodeSchedule builds a schedule from an ILP solution's start variables.
func (im *ilpModel) decodeSchedule(p *Problem, x []float64, cfg tdma.FrameConfig) (*tdma.Schedule, error) {
	starts := make([]float64, len(im.links))
	for i, l := range im.links {
		starts[i] = x[im.startVar[l]]
	}
	return NewScheduleFromStarts(p, im.links, starts, 0, cfg)
}

// decodeOrder extracts the transmission order from an ILP solution.
func (im *ilpModel) decodeOrder(x []float64) *Order {
	o := NewOrderDense(im.numLinks)
	for pair, v := range im.pairVar {
		if x[v] > 0.5 {
			o.Set(pair[0], pair[1])
		} else {
			o.Set(pair[1], pair[0])
		}
	}
	return o
}

// SolveWindow solves the feasibility integer program at window winSlots and
// returns a conflict-free schedule meeting all demands and delay bounds, or
// ErrInfeasible.
func SolveWindow(p *Problem, winSlots int, cfg tdma.FrameConfig, opts milp.Options) (*tdma.Schedule, error) {
	if cfg.DataSlots != p.FrameSlots {
		return nil, fmt.Errorf("%w: frame config has %d slots, problem says %d",
			ErrBadDemand, cfg.DataSlots, p.FrameSlots)
	}
	im, err := buildILP(p, winSlots, false)
	if err != nil {
		return nil, err
	}
	s, _, err := im.solveFeasible(p, cfg, opts)
	return s, err
}

// MinSlots finds the smallest window of TDMA slots for which a feasible
// schedule supporting all demands and delay bounds exists (the
// Djukic-Valaee QoS provisioning optimization). It returns the window, the
// schedule, and the number of integer programs solved.
//
// Window feasibility is monotone — a schedule feasible at window w stays
// feasible at w+1 (the start-variable bounds and order big-Ms only relax) —
// so instead of the paper's linear scan the search gallops up from the
// clique lower bound (lb, lb+1, lb+3, lb+7, ...) to bracket the answer and
// binary-searches the bracket (searchWindow). The returned window is exactly
// the linear scan's answer; only the probe count (and therefore the solved
// count) differs.
func MinSlots(p *Problem, cfg tdma.FrameConfig, opts milp.Options) (int, *tdma.Schedule, int, error) {
	if err := p.Validate(); err != nil {
		return 0, nil, 0, err
	}
	if cfg.DataSlots != p.FrameSlots {
		return 0, nil, 0, fmt.Errorf("%w: frame config has %d slots, problem says %d",
			ErrBadDemand, cfg.DataSlots, p.FrameSlots)
	}
	lb := p.CliqueLowerBound()
	if lb < 1 {
		lb = 1
	}
	if lb > p.FrameSlots {
		return 0, nil, 0, fmt.Errorf("%w: no window up to %d slots supports the demands",
			ErrInfeasible, p.FrameSlots)
	}
	im, err := buildILP(p, lb, false)
	if err != nil {
		return 0, nil, 0, err
	}
	solved := 0
	probe := func(win int) (*tdma.Schedule, error) {
		if err := im.setWindow(p, win); err != nil {
			return nil, err
		}
		solved++
		s, _, err := im.solveFeasible(p, cfg, opts)
		return s, err
	}
	win, s, err := searchWindow(probe, lb, lb, p.FrameSlots)
	if err != nil {
		return 0, nil, solved, err
	}
	return win, s, solved, nil
}

// searchWindow returns the smallest window in [lb, hi] at which probe finds
// a schedule, with that schedule. Every window below lb must be known
// infeasible, and feasibility monotone in the window. The search probes hint
// (clamped into [lb, hi]) first: when it is feasible the answer is bisected
// out of [lb, hint]; otherwise the search gallops up (hint+1, hint+3,
// hint+7, ... capped at hi) to bracket the answer and bisects the bracket.
// The best window is always a probed-feasible one with its schedule cached,
// so the result never needs a re-solve. Errors other than ErrInfeasible
// abort the search.
func searchWindow(probe func(win int) (*tdma.Schedule, error), hint, lb, hi int) (int, *tdma.Schedule, error) {
	w := min(max(hint, lb), hi)
	var best *tdma.Schedule
	for step := 1; best == nil; step *= 2 {
		s, err := probe(w)
		switch {
		case err == nil:
			best = s
		case !errors.Is(err, ErrInfeasible):
			return 0, nil, err
		case w == hi:
			return 0, nil, fmt.Errorf("%w: no window up to %d slots supports the demands", ErrInfeasible, hi)
		default:
			lb, w = w+1, min(w+step, hi)
		}
	}
	for lb < w {
		mid := (lb + w) / 2
		s, err := probe(mid)
		switch {
		case err == nil:
			best, w = s, mid
		case errors.Is(err, ErrInfeasible):
			lb = mid + 1
		default:
			return 0, nil, err
		}
	}
	return w, best, nil
}

// MinMaxDelayResult is the outcome of the exact order optimization.
//
// Schedule carries the delay guarantee: it is the optimal conflict-free
// schedule and MaxDelay is its maximum end-to-end scheduling delay. Order is
// the in-frame relative transmission order of that schedule, suitable for
// dissemination (MSH-DSCH-style) and for regenerating feasible schedules
// with OrderToSchedule; because the optimum may chain hops across the frame
// boundary at zero cost, a schedule regenerated from Order alone is valid
// but may have larger delay than Schedule.
type MinMaxDelayResult struct {
	Order    *Order
	Schedule *tdma.Schedule
	// MaxDelaySlots is the optimized maximum scheduling delay over all
	// flows, in slots (gaps plus transmission slots).
	MaxDelaySlots int
	// MaxDelay is MaxDelaySlots converted to time via the slot duration.
	MaxDelay time.Duration
	// Optimal reports whether the branch-and-bound proved optimality.
	Optimal bool
}

// MinMaxDelayOrder solves the min-max delay transmission-order binary
// program exactly at window winSlots: among all orders feasible in the
// window, it finds one minimizing the maximum end-to-end scheduling delay
// across the problem's flows (NP-complete in general; exact via
// branch-and-bound here).
func MinMaxDelayOrder(p *Problem, winSlots int, cfg tdma.FrameConfig, opts milp.Options) (*MinMaxDelayResult, error) {
	if cfg.DataSlots != p.FrameSlots {
		return nil, fmt.Errorf("%w: frame config has %d slots, problem says %d",
			ErrBadDemand, cfg.DataSlots, p.FrameSlots)
	}
	if len(p.Flows) == 0 {
		return nil, fmt.Errorf("%w: min-max delay needs at least one flow", ErrBadDemand)
	}
	im, err := buildILP(p, winSlots, true)
	if err != nil {
		return nil, err
	}
	sol, err := im.model.Solve(opts)
	if errors.Is(err, milp.ErrInfeasible) {
		return nil, fmt.Errorf("%w: window of %d slots", ErrInfeasible, winSlots)
	}
	if err != nil {
		return nil, fmt.Errorf("min-max delay order: %w", err)
	}
	s, err := im.decodeSchedule(p, sol.X, cfg)
	if err != nil {
		return nil, err
	}
	if err := p.checkSchedule(s); err != nil {
		return nil, err
	}
	slots := int(math.Round(sol.X[im.delayVar]))
	return &MinMaxDelayResult{
		Order:         im.decodeOrder(sol.X),
		Schedule:      s,
		MaxDelaySlots: slots,
		MaxDelay:      time.Duration(slots) * cfg.SlotDuration(),
		Optimal:       sol.Optimal,
	}, nil
}
