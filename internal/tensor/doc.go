// Package tensor provides the dense integer and floating-point tensor
// substrate used throughout the RTM-AP stack: NCHW tensors, the oracle's
// one ternary convolution (a row-streaming direct kernel over int32 codes
// and float32 values), pooling and elementwise kernels.
//
// Two element types are supported. Float tensors carry the full-precision
// reference path (used to validate that quantized AP execution "retains
// software accuracy"); Int tensors carry integer activation codes, which is
// what the associative processor actually stores and computes on.
package tensor
