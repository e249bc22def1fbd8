package model

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"rtmap/internal/tensor"
)

// Round-trip through the JSON model format must preserve the network
// exactly: identical structure and, decisively, identical integer
// inference on the same input — field-level, unlike the logits-only
// TestJSONRoundTrip in model_test.go.
func TestJSONRoundTripExact(t *testing.T) {
	nets := []*Network{
		TinyCNN(Config{ActBits: 4, Sparsity: 0.5, Seed: 3}),
		TinyResNet(Config{ActBits: 8, Sparsity: 0.8, Seed: 9}),
	}
	for _, orig := range nets {
		var buf bytes.Buffer
		if err := orig.WriteJSON(&buf); err != nil {
			t.Fatalf("%s: write: %v", orig.Name, err)
		}
		got, err := ReadJSON(&buf)
		if err != nil {
			t.Fatalf("%s: read: %v", orig.Name, err)
		}

		if got.Name != orig.Name || got.InputShape != orig.InputShape || got.InputQ != orig.InputQ {
			t.Fatalf("%s: header mismatch", orig.Name)
		}
		if len(got.Layers) != len(orig.Layers) {
			t.Fatalf("%s: %d layers, want %d", orig.Name, len(got.Layers), len(orig.Layers))
		}
		for i := range orig.Layers {
			a, b := &orig.Layers[i], &got.Layers[i]
			if a.Kind != b.Kind || a.Name != b.Name || !reflect.DeepEqual(a.Inputs, b.Inputs) {
				t.Fatalf("%s layer %d: identity mismatch", orig.Name, i)
			}
			if (a.W == nil) != (b.W == nil) || (a.W != nil && !reflect.DeepEqual(a.W, b.W)) {
				t.Fatalf("%s layer %d: weights mismatch", orig.Name, i)
			}
			if a.Q != b.Q || a.ReLU != b.ReLU || a.ShareID != b.ShareID ||
				a.Pool != b.Pool || a.Stride != b.Stride || a.Pad != b.Pad || a.WScale != b.WScale {
				t.Fatalf("%s layer %d: attribute mismatch", orig.Name, i)
			}
		}

		in := rampInput(orig.InputShape)
		trA, err := orig.ForwardInt(in)
		if err != nil {
			t.Fatal(err)
		}
		trB, err := got.ForwardInt(in)
		if err != nil {
			t.Fatal(err)
		}
		for i := range trA.Outputs {
			if !trA.Outputs[i].Equal(trB.Outputs[i]) {
				t.Fatalf("%s: layer %d integer outputs diverge after round-trip", orig.Name, i)
			}
		}
	}
}

// rampInput fills a deterministic non-trivial input covering the
// quantizer range.
func rampInput(s tensor.Shape) *tensor.Float {
	in := tensor.NewFloat(s)
	for i := range in.Data {
		in.Data[i] = float32(i%13) * 0.17
	}
	return in
}

// SaveFile/LoadFile round-trip through the filesystem.
func TestJSONFileRoundTrip(t *testing.T) {
	net := TinyCNN(Config{ActBits: 4, Sparsity: 0.5, Seed: 3})
	path := filepath.Join(t.TempDir(), "tiny.json")
	if err := net.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != net.Name || len(got.Layers) != len(net.Layers) {
		t.Fatalf("file round-trip lost structure: %s/%d layers", got.Name, len(got.Layers))
	}
}

func TestReadJSONRejectsBadInput(t *testing.T) {
	cases := map[string]string{
		"not json":       "{",
		"unknown format": `{"format":"something-else","name":"x","input_nchw":[1,1,1,1],"input_quant":{"bits":4,"step":1}}`,
		"unknown kind":   `{"format":"rtmap-twn-v1","name":"x","input_nchw":[1,1,1,1],"input_quant":{"bits":4,"step":1},"layers":[{"kind":"warp","name":"l0","inputs":[-1]}]}`,
	}
	for name, body := range cases {
		if _, err := ReadJSON(strings.NewReader(body)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// The oracle takes its network as valid, so a document that decodes into
// an invalid network must be refused by ReadJSON itself.
func TestReadJSONRejectsInvalidNetwork(t *testing.T) {
	var buf bytes.Buffer
	if err := TinyCNN(DefaultConfig()).WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	for name, tc := range map[string]struct {
		edit func(*jsonNetwork)
		want string
	}{
		"forward reference": {func(d *jsonNetwork) { d.Layers[1].Inputs = []int{3} }, "not topologically earlier"},
		"zero stride":       {func(d *jsonNetwork) { d.Layers[0].Stride = 0 }, "stride 0"},
		"short weights":     {func(d *jsonNetwork) { d.Layers[0].Cout++ }, "data length"},
	} {
		var doc jsonNetwork
		if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
			t.Fatal(err)
		}
		tc.edit(&doc)
		body, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ReadJSON(bytes.NewReader(body)); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: ReadJSON returned %v, want an error containing %q", name, err, tc.want)
		}
	}
}

func TestTernaryCoding(t *testing.T) {
	w := []int8{0, 1, -1, 1, 0}
	enc, err := encodeTernary(w)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := decodeTernary(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(w, rt) {
		t.Fatalf("ternary coding round-trip: %v -> %v", w, rt)
	}
	if _, err := decodeTernary([]byte{0, 1, 2, 3}); err == nil {
		t.Error("invalid ternary byte 3 accepted")
	}
	if _, err := encodeTernary([]int8{0, 5}); err == nil {
		t.Error("non-ternary weight 5 encoded without error")
	}
}

// A network holding corrupted (non-ternary) weights must fail WriteJSON
// with a wrapped error — never panic: serialization is reachable from
// data (rtmap-compile -save on a loaded model), so it sits on the error
// side of the panic-vs-error boundary.
func TestWriteJSONCorruptWeightsErrors(t *testing.T) {
	net := TinyCNN(Config{ActBits: 4, Sparsity: 0.5, Seed: 3})
	for i := range net.Layers {
		if net.Layers[i].W != nil {
			net.Layers[i].W.W[0] = 7
			break
		}
	}
	var buf bytes.Buffer
	err := net.WriteJSON(&buf)
	if err == nil {
		t.Fatal("corrupt weights serialized without error")
	}
	if !strings.Contains(err.Error(), "non-ternary") {
		t.Fatalf("error %v does not identify the non-ternary weight", err)
	}
}
