package core

import (
	"rtmap/internal/codegen"
	"rtmap/internal/energy"
	"rtmap/internal/model"
)

// Config selects the compiler configuration. The paper evaluates `unroll`
// (CSE=false) and `unroll+CSE` (CSE=true).
type Config struct {
	Par energy.Params
	// CSE enables the common-subexpression-elimination step of §IV-A.
	CSE bool
	// KeepPrograms retains executable AP programs per (strip, tile) for
	// functional simulation. Off for large networks where only the cost
	// statistics are needed.
	KeepPrograms bool
	// Parallel enables the goroutine-parallel lowering driver: layers are
	// lowered across a worker pool sized by GOMAXPROCS; when the network
	// has fewer layers than cores, per-channel DFG construction inside
	// each layer parallelizes as well. Output is bit-identical to the
	// serial path.
	Parallel bool
	// Cache, when non-nil, is consulted for content-addressed per-layer
	// lowering results (keyed on weights, activation format, shapes, array
	// pool and the relevant Config fields), so config sweeps over the same
	// network reuse lowered layers. nil disables caching.
	Cache *Cache
}

const (
	// baseTempBudget reserves CAM columns for DFG temporaries (doubled
	// while the array holds it when a layer's schedule runs out).
	baseTempBudget = 48
	// tileFloor is the minimum accumulator-tile size the planner accepts
	// before it stops trading tile columns for input planes.
	tileFloor = 32
)

// DefaultConfig returns the paper's unroll+CSE configuration, with the
// parallel lowering driver and the process-wide artifact cache enabled.
func DefaultConfig() Config {
	return Config{
		Par:      energy.Default(),
		CSE:      true,
		Parallel: true,
		Cache:    SharedCache,
	}
}

// LayerClass groups layers by their cost-model treatment.
type LayerClass int

const (
	// ClassConv covers conv and linear layers (the full AP pipeline).
	ClassConv LayerClass = iota
	// ClassQuant is the fused ReLU+requantize peripheral step.
	ClassQuant
	// ClassAdd is an elementwise residual addition on the AP.
	ClassAdd
	// ClassPool is max pooling (AP compare/select passes).
	ClassPool
	// ClassGAP is global average pooling (AP adds + peripheral divide).
	ClassGAP
	// ClassFree has no hardware cost (flatten).
	ClassFree
)

func (c LayerClass) String() string {
	switch c {
	case ClassConv:
		return "conv"
	case ClassQuant:
		return "quant"
	case ClassAdd:
		return "add"
	case ClassPool:
		return "pool"
	case ClassGAP:
		return "gap"
	case ClassFree:
		return "free"
	}
	return "?"
}

// StripPlan records one channel strip's resident channels and (optionally)
// its executable tile programs.
type StripPlan struct {
	Channels []int // model input-channel indices, resident-slot order
	Programs []*codegen.TileProgram
}

// LayerPlan is the compiled form of one layer.
type LayerPlan struct {
	Index int
	Name  string
	Kind  model.Kind
	Class LayerClass

	// Shapes.
	InC, InH, InW    int
	OutC, OutH, OutW int
	P                int // OutH·OutW — output positions mapped to CAM rows

	// Activation format at the layer input.
	ActBits     int
	ActUnsigned bool

	// Conv/linear mapping (§III/IV-B).
	K             int // Fh·Fw patch size
	RowGroups     int // APs per strip
	Strips        int // channel strips (total)
	Replicas      int // strips running in parallel
	LoadRounds    int // sequential strip rounds when Strips > Replicas
	Planes        int // input column sets per AP
	ChansPerPlane int
	Tiles         int // output-channel tiles
	TileSize      int // accumulators per full tile
	OutGroups     int // tiles processed on disjoint arrays in parallel
	AccWidth      int // partial-sum width

	// The price of the emitted tile programs, summed over (tile × strip);
	// CG.DFGOps is the Table II "#Adds/Subs" count (MVM convention).
	CG codegen.Stats

	NaiveOps int // one-accumulate-per-nonzero convention (§IV-A "19 ops")

	// Inter-strip accumulation (adder tree).
	ReduceOps      int
	ReduceBits     int
	ReduceMoveBits int64

	// Input staging (consumer-side accounting; see DESIGN.md).
	LoadMoveBits  int64 // unique activation bits over the interconnect
	LoadWriteBits int64 // CAM write bits incl. im2col duplication

	// Non-conv costs.
	RequantElems int64 // quant layers: fused ReLU+requantize elements
	ElemOps      int64 // add layers: SIMD add instructions
	ElemBits     int64
	PoolCmpOps   int64 // pool layers: compare/select instructions
	PoolCmpBits  int64

	// Functional-simulation programs (Config.KeepPrograms).
	StripPlans []StripPlan
	TileSizes  []int // actual size of each tile (last may be smaller)
}

// InCEffective returns the input-channel count of a conv layer plan
// (patch inputs are per channel; linear layers use flattened features).
func (l *LayerPlan) InCEffective() int {
	if l.Class != ClassConv {
		return 0
	}
	if l.Kind == model.KindLinear {
		return l.InC * l.InH * l.InW
	}
	return l.InC
}

// Compiled is the result of compiling a network.
type Compiled struct {
	Net    *model.Network
	Cfg    Config
	Layers []*LayerPlan

	// PoolArrays is the number of 256×256 arrays the network needs — the
	// "#Arrays" column of Table II (the widest layer's row groups; deeper
	// layers reuse those arrays as channel-strip replicas).
	PoolArrays int
}

// TotalAddSub sums the Table II "#Adds/Subs" metric over all layers.
func (c *Compiled) TotalAddSub() int {
	t := 0
	for _, l := range c.Layers {
		t += l.CG.DFGOps
	}
	return t
}

// TotalNaive sums the unoptimized accumulate-op convention.
func (c *Compiled) TotalNaive() int {
	t := 0
	for _, l := range c.Layers {
		t += l.NaiveOps
	}
	return t
}

// ConvPlans returns the conv/linear layer plans in definition order (the
// per-layer axis of Fig. 4).
func (c *Compiled) ConvPlans() []*LayerPlan {
	var out []*LayerPlan
	for _, l := range c.Layers {
		if l.Class == ClassConv {
			out = append(out, l)
		}
	}
	return out
}
