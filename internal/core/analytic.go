package core

import (
	"time"

	"wimesh/internal/analytic"
	"wimesh/internal/topology"
)

// effectiveQueueCap resolves the finite per-link queue depth a run uses: the
// run override when set, else the MAC default.
func (s *System) effectiveQueueCap(rc RunConfig) int {
	if rc.QueueCap > 0 {
		return rc.QueueCap
	}
	return s.MAC.Defaulted().QueueCap
}

// analyticTDMAConfig assembles the closed-form model parameters matching
// what RunTDMA would simulate under rc: same frame, guard, SIFS, per-link
// airtimes (adaptive rates included), queue depth and playout target.
func (s *System) analyticTDMAConfig(rc RunConfig) (analytic.TDMAConfig, error) {
	rc.applyDefaults()
	mac := s.MAC.Defaulted()
	airs := make([]time.Duration, s.Topo.NumLinks())
	pkt := rc.Codec.PacketBytes()
	for _, lk := range s.Topo.Links() {
		rate := mac.DataRateBps
		if lk.RateBps > 0 && mac.PHY.SupportsRate(lk.RateBps) {
			rate = lk.RateBps
		}
		at, err := mac.PHY.DataFrameTime(pkt, rate)
		if err != nil {
			return analytic.TDMAConfig{}, err
		}
		airs[lk.ID] = at
	}
	return analytic.TDMAConfig{
		Frame:       s.Frame,
		Guard:       mac.Guard,
		SIFS:        mac.PHY.SIFS,
		LinkAirtime: airs,
		QueueCap:    s.effectiveQueueCap(rc),
		Codec:       rc.Codec,
		LateTarget:  playoutLateTarget,
	}, nil
}

// analyticDCFConfig assembles the DCF screen parameters matching RunDCF.
func (s *System) analyticDCFConfig(rc RunConfig) analytic.DCFConfig {
	rc.applyDefaults()
	mac := s.MAC.Defaulted()
	return analytic.DCFConfig{
		PHY:               mac.PHY,
		DataRateBps:       mac.DataRateBps,
		Codec:             rc.Codec,
		InterferenceRange: s.InterferenceRange,
		RetryLimit:        0, // dcf.Config default (7)
		QueueCap:          s.effectiveQueueCap(rc),
		LateTarget:        playoutLateTarget,
	}
}

// AnalyticTDMA evaluates the closed-form TDMA model (internal/analytic) for
// the planned flow set under the run's codec and queue depth — the same
// prediction the capacity search brackets with. The returned
// Prediction's Flows slice is freshly allocated per call.
func (s *System) AnalyticTDMA(plan *Plan, fs *topology.FlowSet, rc RunConfig) (analytic.Prediction, error) {
	cfg, err := s.analyticTDMAConfig(rc)
	if err != nil {
		return analytic.Prediction{}, err
	}
	pred, err := analytic.NewPredictor().PredictTDMA(plan.Schedule, fs.Flows, cfg)
	if err != nil {
		return analytic.Prediction{}, err
	}
	pred.Flows = append([]analytic.FlowPrediction(nil), pred.Flows...)
	return pred, nil
}

// AnalyticDCF evaluates the DCF saturation screen for the flow set.
func (s *System) AnalyticDCF(fs *topology.FlowSet, rc RunConfig) (analytic.Prediction, error) {
	pred, err := analytic.NewPredictor().PredictDCF(s.Graph, fs.Flows, s.analyticDCFConfig(rc))
	if err != nil {
		return analytic.Prediction{}, err
	}
	pred.Flows = append([]analytic.FlowPrediction(nil), pred.Flows...)
	return pred, nil
}

// analyticProber builds the screening prober of the capacity search: probes
// plan (TDMA) and evaluate the closed-form model instead of simulating. Like
// every prober it runs its probes one at a time, so the predictor can reuse
// its scratch across calls.
func (s *System) analyticProber(cfg CapacityConfig, tdma bool,
	prepare func(int) (*topology.FlowSet, error)) (*prober, error) {
	pd := analytic.NewPredictor()
	var probe func(int, *topology.FlowSet) (probeOutcome, error)
	if tdma {
		acfg, err := s.analyticTDMAConfig(cfg.Run)
		if err != nil {
			return nil, err
		}
		probe = func(k int, fs *topology.FlowSet) (probeOutcome, error) {
			plan, planErr := s.PlanVoIP(fs, cfg.Method, cfg.Run.Codec)
			if planErr != nil {
				return probeOutcome{stop: StopSchedule}, nil
			}
			pred, predErr := pd.PredictTDMA(plan.Schedule, fs.Flows, acfg)
			if predErr != nil {
				return probeOutcome{}, predErr
			}
			return analyticOutcome(pred), nil
		}
	} else {
		acfg := s.analyticDCFConfig(cfg.Run)
		probe = func(k int, fs *topology.FlowSet) (probeOutcome, error) {
			pred, predErr := pd.PredictDCF(s.Graph, fs.Flows, acfg)
			if predErr != nil {
				return probeOutcome{}, predErr
			}
			return analyticOutcome(pred), nil
		}
	}
	return newProber(probe, prepare), nil
}

// analyticOutcome converts a closed-form prediction into a probe verdict
// with a synthetic run result, so the screen's bracket guess carries per-flow
// predictions the residual histogram can compare against the verifying
// simulation. The flows are copied out of the predictor's reused scratch.
func analyticOutcome(pred analytic.Prediction) probeOutcome {
	if !pred.AllAcceptable {
		return probeOutcome{stop: StopQuality}
	}
	run := &RunResult{MinR: pred.MinR, AllAcceptable: true,
		Flows: make([]FlowResult, len(pred.Flows))}
	for i, fp := range pred.Flows {
		run.Flows[i] = FlowResult{
			FlowID:       fp.FlowID,
			Loss:         fp.Loss,
			MeanDelay:    fp.MeanDelay,
			P95Delay:     fp.P95Delay,
			MaxDelay:     fp.MaxDelay,
			JitterBuffer: fp.JitterBuffer,
			LateLoss:     fp.LateLoss,
			MouthToEar:   fp.MouthToEar,
			Quality:      fp.Quality,
		}
	}
	return probeOutcome{pass: true, run: run}
}

// worstP95 returns the largest per-flow P95 delay of a run (screen residual
// instrumentation).
func worstP95(run *RunResult) time.Duration {
	var w time.Duration
	for i := range run.Flows {
		if d := run.Flows[i].P95Delay; d > w {
			w = d
		}
	}
	return w
}
