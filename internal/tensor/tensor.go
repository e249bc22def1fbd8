package tensor

import "fmt"

// Shape describes an NCHW tensor layout. N is the batch dimension, C the
// channel count, H and W the spatial extents. Fully-connected activations
// are represented with H = W = 1.
type Shape struct {
	N, C, H, W int
}

// Elems returns the total number of elements of the shape.
func (s Shape) Elems() int { return s.N * s.C * s.H * s.W }

// Valid reports whether all dimensions are strictly positive.
func (s Shape) Valid() bool { return s.N > 0 && s.C > 0 && s.H > 0 && s.W > 0 }

// Index returns the flat offset of (n, c, h, w) in row-major NCHW order.
func (s Shape) Index(n, c, h, w int) int {
	return ((n*s.C+c)*s.H+h)*s.W + w
}

func (s Shape) String() string {
	return fmt.Sprintf("%dx%dx%dx%d", s.N, s.C, s.H, s.W)
}

// Int is a dense int32 tensor in NCHW layout. int32 comfortably holds any
// partial sum arising from ternary convolutions over 8-bit activations
// (worst case |sum| ≤ Cin·Fh·Fw·255 < 2^31 for every network in the paper).
type Int struct {
	Shape Shape
	Data  []int32
}

// NewInt allocates a zero-initialized integer tensor.
func NewInt(s Shape) *Int {
	if !s.Valid() {
		panic(fmt.Sprintf("tensor: invalid shape %v", s))
	}
	return &Int{Shape: s, Data: make([]int32, s.Elems())}
}

// At returns the element at (n, c, h, w).
func (t *Int) At(n, c, h, w int) int32 { return t.Data[t.Shape.Index(n, c, h, w)] }

// Set stores v at (n, c, h, w).
func (t *Int) Set(n, c, h, w int, v int32) { t.Data[t.Shape.Index(n, c, h, w)] = v }

// Clone returns a deep copy of the tensor.
func (t *Int) Clone() *Int {
	c := NewInt(t.Shape)
	copy(c.Data, t.Data)
	return c
}

// Equal reports whether two integer tensors have identical shape and data.
func (t *Int) Equal(o *Int) bool {
	if t.Shape != o.Shape {
		return false
	}
	for i, v := range t.Data {
		if v != o.Data[i] {
			return false
		}
	}
	return true
}

// Float is a dense float32 tensor in NCHW layout.
type Float struct {
	Shape Shape
	Data  []float32
}

// NewFloat allocates a zero-initialized float tensor.
func NewFloat(s Shape) *Float {
	if !s.Valid() {
		panic(fmt.Sprintf("tensor: invalid shape %v", s))
	}
	return &Float{Shape: s, Data: make([]float32, s.Elems())}
}

// At returns the element at (n, c, h, w).
func (t *Float) At(n, c, h, w int) float32 { return t.Data[t.Shape.Index(n, c, h, w)] }

// Set stores v at (n, c, h, w).
func (t *Float) Set(n, c, h, w int, v float32) { t.Data[t.Shape.Index(n, c, h, w)] = v }

// Clone returns a deep copy of the tensor.
func (t *Float) Clone() *Float {
	c := NewFloat(t.Shape)
	copy(c.Data, t.Data)
	return c
}

// AddInt accumulates o (elementwise) into t. Shapes must match.
func (t *Int) AddInt(o *Int) {
	if t.Shape != o.Shape {
		panic(fmt.Sprintf("tensor: shape mismatch %v vs %v", t.Shape, o.Shape))
	}
	for i, v := range o.Data {
		t.Data[i] += v
	}
}

// AddFloat accumulates o (elementwise) into t. Shapes must match.
func (t *Float) AddFloat(o *Float) {
	if t.Shape != o.Shape {
		panic(fmt.Sprintf("tensor: shape mismatch %v vs %v", t.Shape, o.Shape))
	}
	for i, v := range o.Data {
		t.Data[i] += v
	}
}

// ReLUFloat clamps negative elements to zero in place.
func (t *Float) ReLUFloat() {
	for i, v := range t.Data {
		if v < 0 {
			t.Data[i] = 0
		}
	}
}

// ArgmaxInt returns, for each batch element, the flat index (over C·H·W) of
// the maximum value. Ties resolve to the lowest index.
func (t *Int) ArgmaxInt() []int {
	return argmax(t.Shape, func(i int) float64 { return float64(t.Data[i]) })
}

// ArgmaxFloat returns, for each batch element, the flat index (over C·H·W)
// of the maximum value. Ties resolve to the lowest index.
func (t *Float) ArgmaxFloat() []int {
	return argmax(t.Shape, func(i int) float64 { return float64(t.Data[i]) })
}

func argmax(s Shape, at func(int) float64) []int {
	per := s.C * s.H * s.W
	out := make([]int, s.N)
	for n := 0; n < s.N; n++ {
		base := n * per
		best, bestIdx := at(base), 0
		for i := 1; i < per; i++ {
			if v := at(base + i); v > best {
				best, bestIdx = v, i
			}
		}
		out[n] = bestIdx
	}
	return out
}

// ConvOutDim returns the output extent of a convolution along one axis.
func ConvOutDim(in, kernel, stride, pad int) int {
	return (in+2*pad-kernel)/stride + 1
}
