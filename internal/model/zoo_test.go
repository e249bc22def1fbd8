package model

import (
	"sort"
	"strings"
	"testing"
)

// TestZoo holds the zoo table to its networks: names sorted and unique,
// each declared shape the built network's InputShape, and Build answering
// an unknown name or an out-of-range build point with an error, not a
// panic.
func TestZoo(t *testing.T) {
	names := ZooNames()
	if len(names) != 6 || !sort.StringsAreSorted(names) {
		t.Fatalf("ZooNames() = %v, want 6 sorted names", names)
	}
	for i := 1; i < len(names); i++ {
		if names[i] == names[i-1] {
			t.Errorf("ZooNames() repeats %q", names[i])
		}
	}
	for _, name := range names {
		net, err := Build(name, DefaultConfig())
		if err != nil {
			t.Fatalf("Build(%s): %v", name, err)
		}
		sh, ok := ZooShape(name)
		if !ok || sh != net.InputShape {
			t.Errorf("%s: ZooShape = %v, %v; built InputShape %v", name, sh, ok, net.InputShape)
		}
		if err := net.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	if _, ok := ZooShape("nosuch"); ok {
		t.Error("ZooShape(nosuch) reports a shape")
	}

	bad := []struct {
		name string
		cfg  Config
		want string
	}{
		{"nosuch", DefaultConfig(), strings.Join(names, "|")},
		{"tinycnn", Config{ActBits: 1, Sparsity: 0.8, Seed: 1}, "activation bits 1 out of range"},
		{"tinycnn", Config{ActBits: 9, Sparsity: 0.8, Seed: 1}, "activation bits 9 out of range"},
		{"tinycnn", Config{ActBits: 4, Sparsity: -0.1, Seed: 1}, "sparsity -0.1 out of range"},
		{"tinycnn", Config{ActBits: 4, Sparsity: 1, Seed: 1}, "sparsity 1 out of range"},
	}
	for _, tc := range bad {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("Build(%s, %+v) panicked: %v", tc.name, tc.cfg, r)
				}
			}()
			net, err := Build(tc.name, tc.cfg)
			if err == nil || net != nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("Build(%s, %+v) = %v, %v; want an error containing %q", tc.name, tc.cfg, net, err, tc.want)
			}
		}()
	}
}
