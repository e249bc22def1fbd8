// Package model defines the network intermediate representation consumed by
// the RTM-AP compiler: a DAG of layers with ternary weights and explicit
// activation-quantization points, plus reference float and integer
// inference paths, the paper's model zoo (VGG-9, VGG-11, ResNet-18) and a
// compact JSON serialization standing in for the ONNX import of Fig. 3a.
//
// Network.ExecLayers is the one layer walker and holds the only copy of the
// integer semantics of every layer kind but conv/linear, which a ConvExec
// computes. An act-quant that reads the conv/linear layer just before it
// is handed to that layer's ConvExec as a Requant: the AP engine applies
// it (requantInto, through Requant.Apply) in the tasks that finish each
// row block, as the RTM-AP fuses requantize onto every conv; the software
// reference (ConvReference) and the ForwardIntQuantized baselines decline,
// and the walker requantizes.
package model
