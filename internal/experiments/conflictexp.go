package experiments

import (
	"fmt"
	"time"

	"wimesh/internal/conflict"
	"wimesh/internal/core"
	"wimesh/internal/topology"
	"wimesh/internal/voip"
)

// R16ConflictModel plans the same VoIP load under three interference
// models of increasing strictness and runs each schedule on the radio
// (whose collisions follow the geometric model). A conflict graph weaker
// than the radio's reality produces shorter schedules that collide on the
// air — the ablation behind core.NewSystem's geometric default.
func R16ConflictModel() (*Table, error) {
	t := &Table{
		ID:     "R16",
		Header: []string{"conflict model", "window", "violations", "worst loss%", "min R"},
		Notes:  "3x3 grid, 6 G.711 calls to the gateway, geometric radio (250 m); schedules planned under each model",
	}
	for _, m := range []conflict.Model{conflict.ModelPrimary, conflict.ModelTwoHop, conflict.ModelGeometric} {
		topo, err := topology.Grid(3, 3, 100)
		if err != nil {
			return nil, err
		}
		sys, err := core.NewSystem(topo, core.WithConflictModel(m))
		if err != nil {
			return nil, err
		}
		fs, err := core.GatewayCalls(topo, 6, voip.G711(), 150*time.Millisecond, false)
		if err != nil {
			return nil, err
		}
		plan, err := sys.PlanVoIP(fs, core.MethodPathMajor, voip.G711())
		if err != nil {
			return nil, err
		}
		res, err := sys.RunTDMA(plan, fs, core.RunConfig{Duration: 3 * time.Second, Seed: 51})
		if err != nil {
			return nil, err
		}
		worstLoss := 0.0
		for _, f := range res.Flows {
			if f.Loss > worstLoss {
				worstLoss = f.Loss
			}
		}
		t.AddRow(m.String(), plan.WindowSlots, res.TDMA.Violations,
			fmt.Sprintf("%.1f", worstLoss*100), fmt.Sprintf("%.1f", res.MinR))
	}
	return t, nil
}
