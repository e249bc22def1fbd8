package dispatch

import (
	"fmt"
	"time"
)

// Config is one deployment shape for a model: how many data-parallel
// replicas, each a pipeline of how many shard stages. Replicas×Stages
// devices total.
type Config struct {
	Replicas int
	Stages   int
}

// Devices returns the device count the config occupies.
func (c Config) Devices() int { return c.Replicas * c.Stages }

func (c Config) String() string {
	return fmt.Sprintf("%dr×%ds", c.Replicas, c.Stages)
}

// Signal is one autoscaler tick's input: the live demand measurements
// and the capacity model to price candidate configs with.
type Signal struct {
	// ArrivalPerSec is the measured request arrival rate since the last
	// tick.
	ArrivalPerSec float64
	// QueueDepth is the model's pending item count (batcher queue).
	QueueDepth int
	// QueueDelay is the DelayEstimator's current drain-time estimate
	// for that depth.
	QueueDelay time.Duration
	// MaxDevices bounds candidate configs to the live fleet;
	// MaxStages bounds pipeline depth (the operator's -shard-stages,
	// clamped by the caller to the model's layer count).
	MaxDevices int
	MaxStages  int
	// Throughput prices a candidate config in sustainable requests per
	// second. The caller builds it from the sim pipeline cost model
	// (Replicas samples per bottleneck interval of the Stages-deep
	// pipeline: sim.PipelineReport.Batch(1, Replicas).InfersPerSec())
	// calibrated against measured service time; it must be monotone in
	// Replicas.
	Throughput func(Config) float64
}

// ScalerOptions tunes the hysteresis. Zero values select defaults.
type ScalerOptions struct {
	// Headroom is the capacity margin demand is padded by before
	// comparison (default 1.25): scale up when demand×Headroom exceeds
	// modeled capacity.
	Headroom float64
	// ShrinkAt triggers scale-down when demand×Headroom falls below
	// capacity×ShrinkAt (default 0.4). The gap between "needs more"
	// (1/Headroom of capacity) and "needs less" (ShrinkAt of capacity)
	// is the hysteresis band that keeps a steady load from flapping.
	ShrinkAt float64
	// HoldTicks is how many CONSECUTIVE ticks a pressure signal must
	// persist before a resize (default 3): oscillating load resets the
	// streak and never scales.
	HoldTicks int
	// CooldownTicks is how many ticks after a resize the scaler stays
	// quiet, letting the new config's measurements settle (default 4).
	CooldownTicks int
}

func (o ScalerOptions) withDefaults() ScalerOptions {
	if o.Headroom <= 1 {
		o.Headroom = 1.25
	}
	if o.ShrinkAt <= 0 || o.ShrinkAt >= 1 {
		o.ShrinkAt = 0.4
	}
	if o.HoldTicks <= 0 {
		o.HoldTicks = 3
	}
	if o.CooldownTicks <= 0 {
		o.CooldownTicks = 4
	}
	return o
}

// Scaler decides, tick by tick, what deployment shape a model should
// have. It is pure policy with hysteresis state: the caller owns the
// tick cadence, measurement, and the application of decisions
// (Registry.Rescale in internal/serve). One Scaler per model; not safe
// for concurrent use.
type Scaler struct {
	opts     ScalerOptions
	cur      Config
	up, down int // consecutive-tick pressure streaks
	cooldown int
}

// NewScaler returns a scaler currently at initial.
func NewScaler(opts ScalerOptions, initial Config) *Scaler {
	if initial.Replicas < 1 {
		initial.Replicas = 1
	}
	if initial.Stages < 1 {
		initial.Stages = 1
	}
	return &Scaler{opts: opts.withDefaults(), cur: initial}
}

// Current returns the config the scaler believes is deployed.
func (s *Scaler) Current() Config { return s.cur }

// SetCurrent overrides the deployed config (the applied placement can
// clamp below what Evaluate asked for — fewer live devices, fewer
// layers than stages). Keeping the scaler honest about what actually
// runs keeps its demand/capacity comparisons meaningful.
func (s *Scaler) SetCurrent(c Config) { s.cur = c }

// Evaluate consumes one tick's signal and returns the config the model
// should run plus whether that is a change (with the reason). Pressure
// must persist HoldTicks consecutive ticks to trigger, and after any
// change the scaler sleeps CooldownTicks — together these are the
// anti-flapping hysteresis the scheduler tests pin down.
func (s *Scaler) Evaluate(sig Signal) (cfg Config, changed bool, reason string) {
	if s.cooldown > 0 {
		s.cooldown--
		return s.cur, false, ""
	}
	if sig.Throughput == nil {
		return s.cur, false, ""
	}
	capacity := sig.Throughput(s.cur)
	demand := sig.ArrivalPerSec * s.opts.Headroom
	// A deep queue is demand too: even if arrivals paused, the backlog
	// must drain. Price it as the rate needed to clear within ~1s.
	if sig.QueueDelay > time.Second {
		demand = max(demand, capacity*s.opts.Headroom*1.01)
	}
	switch {
	case capacity <= 0 || demand > capacity:
		s.up, s.down = s.up+1, 0
	case demand < capacity*s.opts.ShrinkAt && s.cur != (Config{Replicas: 1, Stages: 1}):
		s.down, s.up = s.down+1, 0
	default:
		s.up, s.down = 0, 0
	}

	if s.up >= s.opts.HoldTicks {
		if next, ok := s.pick(sig, demand); ok && next != s.cur {
			return s.resize(next, fmt.Sprintf("demand %.0f/s (with headroom) > capacity %.0f/s", demand, capacity))
		}
		s.up = 0 // already at the best feasible config
		return s.cur, false, ""
	}
	if s.down >= s.opts.HoldTicks {
		if next, ok := s.pick(sig, demand); ok && next.Devices() < s.cur.Devices() {
			return s.resize(next, fmt.Sprintf("demand %.0f/s (with headroom) < %.0f%% of capacity %.0f/s",
				demand, 100*s.opts.ShrinkAt, capacity))
		}
		s.down = 0
		return s.cur, false, ""
	}
	return s.cur, false, ""
}

// resize commits a decision and arms the cooldown.
func (s *Scaler) resize(next Config, reason string) (Config, bool, string) {
	s.cur = next
	s.up, s.down = 0, 0
	s.cooldown = s.opts.CooldownTicks
	return next, true, reason
}

// pick searches candidate configs (replicas × stages within the device
// and stage bounds) for the cheapest one whose modeled throughput
// covers demand — fewest devices, ties to fewer stages (stage hops add
// transfer latency replicas don't). When nothing covers demand it
// returns the highest-throughput candidate: saturated is still better
// than drowning.
func (s *Scaler) pick(sig Signal, demand float64) (Config, bool) {
	maxDev := sig.MaxDevices
	if maxDev < 1 {
		maxDev = 1
	}
	maxStages := sig.MaxStages
	if maxStages < 1 {
		maxStages = 1
	}
	var best Config
	var bestTP float64
	found := false
	for st := 1; st <= maxStages; st++ {
		for r := 1; r*st <= maxDev; r++ {
			c := Config{Replicas: r, Stages: st}
			tp := sig.Throughput(c)
			if tp >= demand {
				if !found || c.Devices() < best.Devices() ||
					(c.Devices() == best.Devices() && c.Stages < best.Stages) {
					best, bestTP, found = c, tp, true
				}
			} else if !found && tp > bestTP {
				best, bestTP = c, tp
			}
		}
	}
	if best == (Config{}) {
		return s.cur, false
	}
	return best, true
}
