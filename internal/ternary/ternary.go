package ternary

import (
	"fmt"
	"math"
	"math/rand/v2"
)

// Weights holds one layer's ternary weights in OIHW order.
// Linear layers use Fh = Fw = 1 with Cin = input features.
type Weights struct {
	Cout, Cin, Fh, Fw int
	W                 []int8 // len Cout*Cin*Fh*Fw, values in {-1,0,1}
}

// New allocates an all-zero ternary weight tensor.
func New(cout, cin, fh, fw int) *Weights {
	if cout <= 0 || cin <= 0 || fh <= 0 || fw <= 0 {
		panic(fmt.Sprintf("ternary: invalid dims %d %d %d %d", cout, cin, fh, fw))
	}
	return &Weights{Cout: cout, Cin: cin, Fh: fh, Fw: fw, W: make([]int8, cout*cin*fh*fw)}
}

// At returns w[co][ci][kh][kw].
func (w *Weights) At(co, ci, kh, kw int) int8 {
	return w.W[((co*w.Cin+ci)*w.Fh+kh)*w.Fw+kw]
}

// Set stores v (must be -1, 0 or 1) at w[co][ci][kh][kw].
func (w *Weights) Set(co, ci, kh, kw int, v int8) {
	if v < -1 || v > 1 {
		panic(fmt.Sprintf("ternary: value %d out of {-1,0,1}", v))
	}
	w.W[((co*w.Cin+ci)*w.Fh+kh)*w.Fw+kw] = v
}

// Elems returns the number of weights.
func (w *Weights) Elems() int { return len(w.W) }

// NNZ returns the number of nonzero weights.
func (w *Weights) NNZ() int {
	n := 0
	for _, v := range w.W {
		if v != 0 {
			n++
		}
	}
	return n
}

// Sparsity returns the fraction of zero weights.
func (w *Weights) Sparsity() float64 {
	return 1 - float64(w.NNZ())/float64(w.Elems())
}

// Validate checks every element is in {-1,0,1}.
func (w *Weights) Validate() error {
	if len(w.W) != w.Cout*w.Cin*w.Fh*w.Fw {
		return fmt.Errorf("ternary: data length %d != %d", len(w.W), w.Cout*w.Cin*w.Fh*w.Fw)
	}
	for i, v := range w.W {
		if v < -1 || v > 1 {
			return fmt.Errorf("ternary: element %d has value %d", i, v)
		}
	}
	return nil
}

// Slice is the weight slice convolved on a single input channel: a
// Cout × K matrix with K = Fh·Fw. It is the unit the paper's CSE operates
// on (§IV-A: "CSEs are found within the weight slice (Cout×1×Fh×Fw), which
// allows the greatest potential for reuse of a single input channel across
// all output channels").
type Slice struct {
	Cout, K int
	M       []int8 // row-major Cout × K
}

// At returns M[row][k].
func (s Slice) At(row, k int) int8 { return s.M[row*s.K+k] }

// Row returns row `row` of the slice (aliasing the underlying storage).
func (s Slice) Row(row int) []int8 { return s.M[row*s.K : (row+1)*s.K] }

// NNZ returns the nonzero count of the slice.
func (s Slice) NNZ() int {
	n := 0
	for _, v := range s.M {
		if v != 0 {
			n++
		}
	}
	return n
}

// RowRange returns the sub-slice of rows [lo, hi) — one output-channel
// tile of the slice. The result aliases the receiver's storage.
func (s Slice) RowRange(lo, hi int) Slice {
	if lo < 0 || hi > s.Cout || lo >= hi {
		panic(fmt.Sprintf("ternary: row range [%d,%d) outside 0..%d", lo, hi, s.Cout))
	}
	return Slice{Cout: hi - lo, K: s.K, M: s.M[lo*s.K : hi*s.K]}
}

// Slice extracts the weight slice for input channel ci.
func (w *Weights) Slice(ci int) Slice {
	k := w.Fh * w.Fw
	s := Slice{Cout: w.Cout, K: k, M: make([]int8, w.Cout*k)}
	for co := 0; co < w.Cout; co++ {
		// Rows are K bytes (one for a linear layer): a loop, not a copy call.
		src, dst := w.W[(co*w.Cin+ci)*k:][:k], s.M[co*k:][:k]
		for i := range dst {
			dst[i] = src[i]
		}
	}
	return s
}

// Random generates ternary weights where each element is zero with
// probability sparsity and otherwise ±1 with equal probability. The rng
// makes generation deterministic; the same (seed, dims, sparsity) always
// yields the same network.
func Random(rng *rand.Rand, cout, cin, fh, fw int, sparsity float64) *Weights {
	if sparsity < 0 || sparsity > 1 {
		panic(fmt.Sprintf("ternary: sparsity %v out of [0,1]", sparsity))
	}
	w := New(cout, cin, fh, fw)
	for i := range w.W {
		if rng.Float64() >= sparsity {
			if rng.IntN(2) == 0 {
				w.W[i] = 1
			} else {
				w.W[i] = -1
			}
		}
	}
	// Guarantee at least one nonzero per output filter so no channel is
	// dead (trained TWNs never have all-zero filters after pruning).
	per := cin * fh * fw
	for co := 0; co < cout; co++ {
		row := w.W[co*per : (co+1)*per]
		dead := true
		for _, v := range row {
			if v != 0 {
				dead = false
				break
			}
		}
		if dead {
			row[rng.IntN(per)] = int8(1 - 2*rng.IntN(2))
		}
	}
	return w
}

// Ternarize converts dense float weights (OIHW) into ternary weights plus a
// positive scale using the TWN rule: threshold Δ = 0.7·mean|W|, scale
// α = mean of |w| over the weights that survive the threshold.
func Ternarize(fw []float32, cout, cin, fh, fw_ int) (*Weights, float32) {
	w := New(cout, cin, fh, fw_)
	if len(fw) != len(w.W) {
		panic(fmt.Sprintf("ternary: got %d floats for %d weights", len(fw), len(w.W)))
	}
	var meanAbs float64
	for _, v := range fw {
		meanAbs += math.Abs(float64(v))
	}
	meanAbs /= float64(len(fw))
	delta := 0.7 * meanAbs

	var alphaSum float64
	var alphaN int
	for i, v := range fw {
		a := math.Abs(float64(v))
		if a <= delta {
			continue
		}
		if v > 0 {
			w.W[i] = 1
		} else {
			w.W[i] = -1
		}
		alphaSum += a
		alphaN++
	}
	alpha := float32(1.0)
	if alphaN > 0 {
		alpha = float32(alphaSum / float64(alphaN))
	}
	return w, alpha
}

// Stats aggregates structural statistics used for reporting.
type Stats struct {
	Elems, NNZ       int
	Sparsity         float64
	PosCount, NegCnt int
}

// Statistics computes structural statistics of the weights.
func (w *Weights) Statistics() Stats {
	s := Stats{Elems: w.Elems()}
	for _, v := range w.W {
		switch {
		case v > 0:
			s.PosCount++
		case v < 0:
			s.NegCnt++
		}
	}
	s.NNZ = s.PosCount + s.NegCnt
	s.Sparsity = 1 - float64(s.NNZ)/float64(s.Elems)
	return s
}
