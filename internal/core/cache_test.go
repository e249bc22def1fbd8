package core

import (
	"reflect"
	"testing"

	"rtmap/internal/model"
)

func convLayerCount(c *Compiled) int {
	n := 0
	for _, p := range c.Layers {
		if p.Class == ClassConv {
			n++
		}
	}
	return n
}

// TestCacheHitMissAccounting pins the cache contract on a two-config
// sweep: a repeated compile of the same network under the same config is
// all hits with byte-identical output, and changing a keyed config field
// (CSE) misses for every conv layer again.
func TestCacheHitMissAccounting(t *testing.T) {
	net := model.TinyCNN(model.DefaultConfig())
	cache := NewCache()
	cfg := DefaultConfig()
	cfg.Cache = cache
	cfg.KeepPrograms = true

	c1, err := Compile(net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	convs := convLayerCount(c1)
	if convs == 0 {
		t.Fatal("no conv layers compiled")
	}
	s := cache.Stats()
	if s.Hits != 0 || s.Misses != convs || s.Entries != convs {
		t.Fatalf("cold compile: stats %+v, want 0 hits / %d misses / %d entries", s, convs, convs)
	}

	c2, err := Compile(net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s = cache.Stats()
	if s.Hits != convs || s.Misses != convs {
		t.Fatalf("warm compile: stats %+v, want %d hits / %d misses", s, convs, convs)
	}
	if !reflect.DeepEqual(c1.Layers, c2.Layers) {
		t.Fatal("cache hit produced a different compilation result")
	}

	cfgUn := cfg
	cfgUn.CSE = false
	c3, err := Compile(net, cfgUn)
	if err != nil {
		t.Fatal(err)
	}
	s = cache.Stats()
	if s.Misses != 2*convs {
		t.Fatalf("CSE=false sweep: stats %+v, want %d misses (config is part of the key)", s, 2*convs)
	}
	if c3.TotalAddSub() < c1.TotalAddSub() {
		t.Fatalf("unroll compile (%d ops) cheaper than CSE (%d): wrong artifact served",
			c3.TotalAddSub(), c1.TotalAddSub())
	}

	cache.Reset()
	if s := cache.Stats(); s.Entries != 0 || s.Hits != 0 {
		t.Fatalf("reset left state behind: %+v", s)
	}
}

// TestCacheKeyedOnWeightsAndActivation asserts that networks differing
// only in weights (seed) or activation precision do not share artifacts.
func TestCacheKeyedOnWeightsAndActivation(t *testing.T) {
	cache := NewCache()
	cfg := DefaultConfig()
	cfg.Cache = cache

	for _, mc := range []model.Config{
		{ActBits: 4, Sparsity: 0.8, Seed: 1},
		{ActBits: 4, Sparsity: 0.8, Seed: 2}, // different weights
		{ActBits: 8, Sparsity: 0.8, Seed: 1}, // different activation grid
	} {
		if _, err := Compile(model.TinyCNN(mc), cfg); err != nil {
			t.Fatal(err)
		}
	}
	if s := cache.Stats(); s.Hits != 0 {
		t.Fatalf("distinct networks shared cache entries: %+v", s)
	}
}

// TestCountOpsMemo pins the CountOps layer memo: a second count over the
// same weights is served from the cache with identical totals.
func TestCountOpsMemo(t *testing.T) {
	net := model.TinyCNN(model.DefaultConfig())
	cache := NewCache()
	a, err := CountOps(net, cache)
	if err != nil {
		t.Fatal(err)
	}
	s := cache.Stats()
	if s.OpHits != 0 || s.OpMisses != len(a.PerLayer) {
		t.Fatalf("cold count: stats %+v, want %d op misses", s, len(a.PerLayer))
	}
	b, err := CountOps(net, cache)
	if err != nil {
		t.Fatal(err)
	}
	if s := cache.Stats(); s.OpHits != len(a.PerLayer) {
		t.Fatalf("warm count: stats %+v, want %d op hits", s, len(a.PerLayer))
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("memoized counts diverge: %+v vs %+v", a, b)
	}
	// The memo must agree with an uncached count.
	c, err := CountOps(net, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, c) {
		t.Fatalf("cached counts %+v != uncached %+v", a, c)
	}
}
