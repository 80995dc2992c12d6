package admit

import (
	"fmt"
	"maps"
	"math"

	"wimesh/internal/tdma"
	"wimesh/internal/topology"
)

// Class is the 802.16 service class of a flow, ordered by scheduling
// priority: UGS > rtPS > nrtPS > BE. The zero value is best effort, so
// class-oblivious callers keep their exact pre-class behavior.
//
// The engine maps the classes onto its slot machinery as follows:
//
//   - UGS (unsolicited grant service): periodic constant-rate grants. The
//     flow's slots on every link must complete within the first
//     Config.UGSDeadline slots of the frame — the periodic-grant region.
//   - rtPS (real-time polling service): polled bandwidth with a looser
//     bound; slots must complete within Config.RtPSWindow.
//   - nrtPS (non-real-time polling service): a throughput floor with no
//     in-frame deadline. An admitted nrtPS flow keeps its slots — that IS
//     the floor — but a guaranteed-class arrival may preempt it.
//   - BE (best effort): no reservation semantics beyond the admitted slots;
//     first to be preempted. Residual slots outside the admitted window are
//     additionally harvestable via schedule.FillResidual.
//
// With Config.UGSDeadline and Config.RtPSWindow both zero the deadline
// machinery is fully disabled and classes only order preemption.
type Class uint8

const (
	// ClassBE is best effort — the zero value, preempted first.
	ClassBE Class = iota
	// ClassNrtPS is non-real-time polling service: throughput floor,
	// no deadline, preemptable by guaranteed classes.
	ClassNrtPS
	// ClassRtPS is real-time polling service: bandwidth within
	// Config.RtPSWindow slots, never preempted.
	ClassRtPS
	// ClassUGS is unsolicited grant service: periodic grants within
	// Config.UGSDeadline slots, never preempted.
	ClassUGS
)

func (c Class) String() string {
	switch c {
	case ClassUGS:
		return "ugs"
	case ClassRtPS:
		return "rtps"
	case ClassNrtPS:
		return "nrtps"
	default:
		return "be"
	}
}

// Guaranteed reports whether the class carries a hard service guarantee —
// UGS and rtPS. Only guaranteed-class arrivals may preempt, and guaranteed
// flows are never eviction victims.
func (c Class) Guaranteed() bool { return c >= ClassRtPS }

// ParseClass parses the String form ("ugs", "rtps", "nrtps", "be").
func ParseClass(s string) (Class, error) {
	switch s {
	case "ugs":
		return ClassUGS, nil
	case "rtps":
		return ClassRtPS, nil
	case "nrtps":
		return ClassNrtPS, nil
	case "be":
		return ClassBE, nil
	}
	return ClassBE, fmt.Errorf("%w: unknown service class %q", ErrBadFlow, s)
}

// classed reports whether the class deadline machinery is active. An
// unclassed engine keeps e.cls empty and its behavior is byte-identical to
// the pre-class engine.
func (e *Engine) classed() bool {
	return e.cfg.UGSDeadline > 0 || e.cfg.RtPSWindow > 0
}

// clsOver reports whether a link's prospective class totals — u UGS slots,
// r rtPS slots — structurally violate a configured deadline: more
// guaranteed slots than the deadline region holds can never be covered in
// any window.
func (e *Engine) clsOver(u, r int) bool {
	if D1 := e.cfg.UGSDeadline; D1 > 0 && u > D1 {
		return true
	}
	if D2 := e.cfg.RtPSWindow; D2 > 0 && r > 0 && u+r > D2 {
		return true
	}
	return false
}

// clsAfter returns the engine's per-link class totals after adding the
// given flows: [0] UGS slots, [1] rtPS slots per link. Nil when the engine
// is class-oblivious. The result is a fresh map. Called with e.mu held.
func (e *Engine) clsAfter(flows []Flow) map[topology.LinkID][2]int {
	if !e.classed() {
		return nil
	}
	m := maps.Clone(e.cls)
	for _, f := range flows {
		classAdd(m, f, 1)
	}
	return m
}

// classAdd folds sign times f's slots into the per-link class totals m,
// dropping zeroed links. No-op for non-guaranteed flows.
func classAdd(m map[topology.LinkID][2]int, f Flow, sign int) {
	if !f.Class.Guaranteed() {
		return
	}
	idx := int(ClassUGS - f.Class) // UGS 0, rtPS 1
	for i, l := range f.Path {
		v := m[l]
		v[idx] += sign * f.Slots[i]
		if v == [2]int{} {
			delete(m, l)
		} else {
			m[l] = v
		}
	}
}

// uncovered reports whether link l, carrying the class totals v, has a
// guaranteed prefix that o's blocks do not complete by its deadline — the
// coverage invariant of a classed engine (see Check).
func (e *Engine) uncovered(o *tdma.Packing, l topology.LinkID, v [2]int) bool {
	D1, D2 := e.cfg.UGSDeadline, e.cfg.RtPSWindow
	return D1 > 0 && v[0] > 0 && o.Covered(l, D1) < v[0] ||
		D2 > 0 && v[1] > 0 && o.Covered(l, D2) < v[0]+v[1]
}

// capsFor translates prospective class totals into the per-link absolute
// start caps the solvers consume (schedule.Problem.StartCap): a solver
// places each link's full demand as one interval, and an interval starting
// at or below min(D1-u, D2-u-r) has its first u slots done by the UGS
// deadline and its first u+r by the rtPS window. Nil when cls is nil or no
// cap binds. A negative cap marks window-independent infeasibility, which
// the structural screen rejects before any solver runs.
func (e *Engine) capsFor(cls map[topology.LinkID][2]int) map[topology.LinkID]int {
	if cls == nil {
		return nil
	}
	var caps map[topology.LinkID]int
	for l, v := range cls {
		c := math.MaxInt
		if D1 := e.cfg.UGSDeadline; D1 > 0 && v[0] > 0 {
			c = min(c, D1-v[0])
		}
		if D2 := e.cfg.RtPSWindow; D2 > 0 && v[1] > 0 {
			c = min(c, D2-v[0]-v[1])
		}
		if c == math.MaxInt {
			continue
		}
		if caps == nil {
			caps = make(map[topology.LinkID]int)
		}
		caps[l] = c
	}
	return caps
}

// stitchLimit bounds where the next re-stitched block of link l may end so
// the link's deadline coverage holds once all its blocks are placed: with
// k of the link's slots already re-placed — everything the live packing
// holds for it, the stitch having cut its old blocks — and n in this
// block, the block carries the next min(n, prefix-k) slots of each
// guaranteed prefix, and those must end by the prefix's deadline.
// Inductively this keeps coverage exact whatever order first-fit lands the
// blocks in. cls nil (class-oblivious) or a link without guaranteed slots
// gets the plain window bound.
func (e *Engine) stitchLimit(l topology.LinkID, n int, cls map[topology.LinkID][2]int) int {
	lim := e.maxWin
	v, ok := cls[l]
	if !ok {
		return lim
	}
	k := e.pack.Covered(l, e.maxWin)
	if D1 := e.cfg.UGSDeadline; D1 > 0 && v[0] > 0 && k < v[0] {
		lim = min(lim, D1+n-min(n, v[0]-k))
	}
	if D2 := e.cfg.RtPSWindow; D2 > 0 && v[1] > 0 && k < v[0]+v[1] {
		lim = min(lim, D2+n-min(n, v[0]+v[1]-k))
	}
	return lim
}
