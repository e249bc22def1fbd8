package serve

import (
	"time"

	"rtmap/internal/dispatch"
)

// scalerState is the autoscale loop's per-entry bookkeeping: the
// hysteresis scaler plus the arrival-counter baseline its rate signal
// is differentiated from.
type scalerState struct {
	sc           *dispatch.Scaler
	lastArrivals int64
	lastTick     time.Time
}

// scaleLoop is the autoscaler: every AutoscaleInterval it derives each
// resident model's arrival rate and queue-delay signal, asks its
// dispatch.Scaler for a configuration (candidates priced by the
// simulator's pipeline cost model, calibrated
// against the measured per-item interval), and applies resizes through
// Registry.Rescale. Runs until Shutdown closes scaleStop.
func (s *Server) scaleLoop() {
	defer close(s.scaleDone)
	t := time.NewTicker(s.opts.AutoscaleInterval)
	defer t.Stop()
	states := map[*entry]*scalerState{}
	for {
		select {
		case <-s.scaleStop:
			return
		case now := <-t.C:
			live := map[*entry]bool{}
			for _, e := range s.reg.Entries() {
				live[e] = true
				s.scaleEntry(states, e, now)
			}
			for e := range states {
				if !live[e] {
					delete(states, e) // evicted entries drop their scaler
				}
			}
		}
	}
}

// scaleEntry runs one scaler tick for one model entry.
func (s *Server) scaleEntry(states map[*entry]*scalerState, e *entry, now time.Time) {
	st := states[e]
	if st == nil {
		// First sight: baseline the arrival counter; rates start next tick.
		states[e] = &scalerState{
			sc:           dispatch.NewScaler(dispatch.ScalerOptions{HoldTicks: 2, CooldownTicks: 3}, e.placed().config()),
			lastArrivals: e.batcher.arrivals.Load(),
			lastTick:     now,
		}
		return
	}
	arr := e.batcher.arrivals.Load()
	dt := now.Sub(st.lastTick).Seconds()
	if dt <= 0 {
		return
	}
	rate := float64(arr-st.lastArrivals) / dt
	st.lastArrivals, st.lastTick = arr, now

	depth := int(e.batcher.depth.Load())
	prev := st.sc.Current()
	cfg, changed, reason := st.sc.Evaluate(dispatch.Signal{
		ArrivalPerSec: rate,
		QueueDepth:    depth,
		QueueDelay:    e.est.Estimate(depth),
		MaxDevices:    s.fleet.NumLive(),
		MaxStages:     min(s.opts.ShardStages, len(e.comp.Layers)), // the scaler floors it at 1
		Throughput:    s.throughputModel(e),
	})
	if !changed {
		return
	}
	applied, err := s.reg.Rescale(e, cfg)
	if err != nil {
		s.opts.Logf("autoscale %s: %v -> %v failed: %v", e.key, prev, cfg, err)
		return
	}
	// The fleet may have clamped the ask; track what actually happened so
	// the scaler never re-asks for capacity that does not exist.
	st.sc.SetCurrent(applied)
	if applied.Devices() > prev.Devices() {
		s.metrics.scaleUps.Inc()
	} else {
		s.metrics.scaleDowns.Inc()
	}
	s.opts.Logf("autoscale %s: %v -> %v (%s)", e.key, prev, applied, reason)
}

// throughputModel prices candidate configurations for one entry in
// requests per second. The shape comes from the simulator — every
// replica retires one sample per bottleneck interval of its K-stage
// pipeline (sim.AnalyzePipeline; at K = 1 the batch model's marginal) —
// and the absolute scale is calibrated by the measured per-item interval
// of the current deployment, so the simulated ns axis never has to match
// wall time. Returns nil until a measurement exists: the scaler stays
// quiet rather than acting on an uncalibrated model.
func (s *Server) throughputModel(e *entry) func(dispatch.Config) float64 {
	per := e.est.PerItem()
	if per <= 0 {
		return nil
	}
	simTP := func(c dispatch.Config) float64 {
		pp, err := e.pipePlanFor(c.Stages)
		if err != nil || pp.pipeline.BottleneckNS <= 0 {
			return 0
		}
		return float64(c.Replicas) * 1e9 / pp.pipeline.BottleneckNS
	}
	cur := simTP(e.placed().config())
	if cur <= 0 {
		return nil
	}
	// measured capacity of the current deployment, items/s
	measured := float64(time.Second) / float64(per)
	calib := measured / cur
	return func(c dispatch.Config) float64 { return simTP(c) * calib }
}
