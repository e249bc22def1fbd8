package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestCompileGoldens holds `rtmap-compile -model M -no-cache` byte for
// byte to testdata/M.golden for every zoo model, and for resnet18 at
// sparsity 0.5: the layouts, op counts, modeled cost and task shapes it
// prints all follow from the greedy CSE order, so these files pin that
// order. -short keeps the models that compile in well under a second. A
// deliberate change of the compiler's output regenerates a file with the
// same command:
//
//	go run ./cmd/rtmap-compile -model vgg9 -no-cache > cmd/rtmap-compile/testdata/vgg9.golden
func TestCompileGoldens(t *testing.T) {
	cases := []struct {
		golden string
		args   []string
		heavy  bool
	}{
		{"tinycnn", []string{"-model", "tinycnn"}, false},
		{"tinyresnet", []string{"-model", "tinyresnet"}, false},
		{"vgg9", []string{"-model", "vgg9"}, false},
		{"vgg11", []string{"-model", "vgg11"}, true},
		{"miniresnet18", []string{"-model", "miniresnet18"}, true},
		{"resnet18", []string{"-model", "resnet18"}, true},
		{"resnet18_sparsity0.5", []string{"-model", "resnet18", "-sparsity", "0.5"}, true},
	}
	for _, tc := range cases {
		t.Run(tc.golden, func(t *testing.T) {
			if tc.heavy && testing.Short() {
				t.Skip("compiles for seconds; run without -short")
			}
			want, err := os.ReadFile(filepath.Join("testdata", tc.golden+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			var got bytes.Buffer
			if err := run(append(tc.args, "-no-cache"), &got); err != nil {
				t.Fatal(err)
			}
			if bytes.Equal(got.Bytes(), want) {
				return
			}
			g, w := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
			for i := 0; i < max(len(g), len(w)); i++ {
				var gl, wl string
				if i < len(g) {
					gl = g[i]
				}
				if i < len(w) {
					wl = w[i]
				}
				if gl != wl {
					t.Fatalf("rtmap-compile %s -no-cache differs from testdata/%s.golden at line %d:\n got %q\nwant %q",
						strings.Join(tc.args, " "), tc.golden, i+1, gl, wl)
				}
			}
		})
	}
}
