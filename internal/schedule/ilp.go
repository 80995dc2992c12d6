package schedule

import (
	"errors"
	"fmt"
	"math"
	"time"

	"wimesh/internal/milp"
	"wimesh/internal/tdma"
)

// solveAt builds a fresh model of p (see Incremental) and solves it once at
// window winSlots.
func solveAt(p *Problem, winSlots int, cfg tdma.FrameConfig, minimizeDelay bool, opts milp.Options) (*Incremental, *milp.Solution, *tdma.Schedule, error) {
	if cfg.DataSlots != p.FrameSlots {
		return nil, nil, nil, fmt.Errorf("%w: frame config has %d slots, problem says %d",
			ErrBadDemand, cfg.DataSlots, p.FrameSlots)
	}
	if winSlots <= 0 || winSlots > p.FrameSlots {
		return nil, nil, nil, fmt.Errorf("%w: window %d outside frame of %d slots",
			ErrBadDemand, winSlots, p.FrameSlots)
	}
	inc, err := newModel(p, cfg, minimizeDelay)
	if err != nil {
		return nil, nil, nil, err
	}
	if err := inc.apply(p, winSlots); err != nil {
		return nil, nil, nil, err
	}
	sol, s, err := inc.solve(p, opts)
	return inc, sol, s, err
}

// SolveWindow solves the feasibility integer program at window winSlots and
// returns a conflict-free schedule meeting all demands and delay bounds, or
// ErrInfeasible.
func SolveWindow(p *Problem, winSlots int, cfg tdma.FrameConfig, opts milp.Options) (*tdma.Schedule, error) {
	opts.FirstFeasible = true
	_, _, s, err := solveAt(p, winSlots, cfg, false, opts)
	return s, err
}

// MinSlots finds the smallest window of TDMA slots for which a feasible
// schedule supporting all demands and delay bounds exists (the
// Djukic-Valaee QoS provisioning optimization): a model over the problem's
// active links, searched up from the clique lower bound (see
// Incremental.MinSlots). It returns the window, the schedule, and the number
// of integer programs solved.
func MinSlots(p *Problem, cfg tdma.FrameConfig, opts milp.Options) (int, *tdma.Schedule, int, error) {
	inc, err := NewIncremental(p, cfg)
	if err != nil {
		return 0, nil, 0, err
	}
	win, s, solved, _, err := inc.MinSlots(p, 0, 0, 0, opts)
	return win, s, solved, err
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
// schedule and MaxDelay is its maximum end-to-end scheduling delay. The
// schedule's start order is its transmission order: ranking each link by
// its start gives an Order for dissemination (MSH-DSCH-style).
type MinMaxDelayResult struct {
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
	if len(p.Flows) == 0 {
		return nil, fmt.Errorf("%w: min-max delay needs at least one flow", ErrBadDemand)
	}
	inc, sol, s, err := solveAt(p, winSlots, cfg, true, opts)
	if err != nil {
		return nil, err
	}
	slots := int(math.Round(sol.X[inc.delayVar]))
	return &MinMaxDelayResult{
		Schedule:      s,
		MaxDelaySlots: slots,
		MaxDelay:      time.Duration(slots) * cfg.SlotDuration(),
		Optimal:       sol.Optimal,
	}, nil
}
