package model

import "testing"

// BenchmarkForwardInt times the oracle's integer forward pass, one input
// per call: the reference every differential test, the benchmark's checks
// and serve's bit-exact tests hold the engine to. Its conv layers are the
// row-streaming tensor.ConvIntTernarySparse.
func BenchmarkForwardInt(b *testing.B) {
	for _, name := range []string{"tinycnn", "vgg9"} {
		b.Run(name, func(b *testing.B) {
			n, err := Build(name, DefaultConfig())
			if err != nil {
				b.Fatal(err)
			}
			in := randInput(7, n.InputShape)
			b.ReportAllocs()
			for b.Loop() {
				if _, err := n.ForwardInt(in); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkForwardFloat times the fake-quantized float pass that
// calibration and the teacher labels run, on vgg9.
func BenchmarkForwardFloat(b *testing.B) {
	b.Run("vgg9", func(b *testing.B) {
		n, err := Build("vgg9", DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		in := randInput(7, n.InputShape)
		b.ReportAllocs()
		for b.Loop() {
			if _, err := n.ForwardFloat(in, true); err != nil {
				b.Fatal(err)
			}
		}
	})
}
