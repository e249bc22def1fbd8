// Package model defines the network intermediate representation consumed by
// the RTM-AP compiler: a DAG of layers with ternary weights and explicit
// activation-quantization points, plus reference float and integer
// inference paths, the model zoo and a compact JSON serialization
// standing in for the ONNX import of Fig. 3a.
//
// The zoo (zoo.go) is the one place a network is named: the paper's
// VGG-9, VGG-11 and ResNet-18, ResNet-18 at 32×32 (miniresnet18), and two
// small test networks, each with its input shape and builder. Build
// checks the name and the build point (Config.Validate) and returns
// errors; the exported builders panic on a bad Config.
//
// Network.ExecLayers is the one layer walker and holds the only copy of the
// integer semantics of every layer kind but conv/linear, which a ConvExec
// computes. An act-quant that reads the conv/linear layer just before it
// is handed to that layer's ConvExec as a Requant, which exposes each
// item's scale and clamps (Requant.Item), and with it a following 2×2
// max-pool whose windows tile the conv output (FusablePool,
// Requant.Pool): the AP engine applies both with its own loops in the
// tasks that finish each row block, as the RTM-AP fuses requantize onto
// every conv; the software reference (ConvReference) and the
// ForwardIntQuantized baselines decline, and the walker requantizes and
// pools with its own loops (requantInto, tensor.MaxPoolIntInto), so the
// oracle and the engine share no requantize or pool code.
package model
