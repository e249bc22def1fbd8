package core

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sync"

	"rtmap/internal/energy"
	"rtmap/internal/model"
)

// Cache is a content-addressed store of per-layer compilation artifacts.
// Conv/linear lowering dominates compile time and depends only on the
// layer's weights, the incoming activation format, the layer shapes, the
// array pool, and the compiler knobs — not on which network the layer is
// embedded in. Keying on a hash of exactly that content lets repeated
// compiles (config sweeps over one network, the Table II / Fig. 4
// artifacts, benchmark reruns) reuse lowered layers instead of redoing
// identical DFG construction and code generation.
//
// A Cache is safe for concurrent use. Cached plans are shared by
// reference between compiles: treat every Compiled as immutable, as the
// rest of the pipeline (sim.Analyze, sim.ForwardAP) already does.
type Cache struct {
	mu    sync.Mutex
	plans map[[32]byte]*LayerPlan
	ops   map[[32]byte][2]int // CountOps memo: (unroll, cse) per layer
	certs map[[32]byte]any    // plan certificates keyed by ArtifactHash
	stats CacheStats
}

// CacheStats counts cache traffic since creation (or the last Reset).
type CacheStats struct {
	Hits     int // lowering results served from the cache
	Misses   int // lowering results computed and inserted
	Entries  int // resident layer plans
	OpHits   int // CountOps layer results served from the cache
	OpMisses int
	// CertHits / CertMisses count certificate lookups: a hit means the
	// artifact was admitted on a stored PlanCertificate without
	// re-running the admission proof.
	CertHits   int
	CertMisses int
}

// SharedCache is the process-wide default cache wired into DefaultConfig.
// Long-running servers that sweep many distinct networks can bound memory
// by calling Reset periodically or by giving each tenant its own Cache.
var SharedCache = NewCache()

// NewCache returns an empty cache.
func NewCache() *Cache {
	return &Cache{
		plans: map[[32]byte]*LayerPlan{},
		ops:   map[[32]byte][2]int{},
		certs: map[[32]byte]any{},
	}
}

// Stats returns a snapshot of the cache counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Entries = len(c.plans)
	return s
}

// Reset drops every entry and zeroes the counters.
func (c *Cache) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.plans = map[[32]byte]*LayerPlan{}
	c.ops = map[[32]byte][2]int{}
	c.certs = map[[32]byte]any{}
	c.stats = CacheStats{}
}

func (c *Cache) String() string {
	s := c.Stats()
	return fmt.Sprintf("cache: %d entries, %d hits / %d misses (ops: %d/%d)",
		s.Entries, s.Hits, s.Misses, s.OpHits, s.OpMisses)
}

// getPlan returns a copy of the cached plan under key, re-labelled for
// position idx of the receiving network. The copy shares the immutable
// slices (programs, tile sizes) with the cached original.
func (c *Cache) getPlan(key [32]byte, idx int, name string) (*LayerPlan, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	p, ok := c.plans[key]
	if !ok {
		c.stats.Misses++
		return nil, false
	}
	c.stats.Hits++
	q := *p
	q.Index, q.Name = idx, name
	return &q, true
}

func (c *Cache) putPlan(key [32]byte, p *LayerPlan) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.plans[key] = p
}

func (c *Cache) getOps(key [32]byte) ([2]int, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	v, ok := c.ops[key]
	if ok {
		c.stats.OpHits++
	} else {
		c.stats.OpMisses++
	}
	return v, ok
}

func (c *Cache) putOps(key [32]byte, v [2]int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ops[key] = v
}

// GetCertificate returns the stored plan certificate of an artifact
// hash, if any. The cache stores certificates opaquely (as `any`):
// internal/dataflow owns the concrete type, and core cannot import it.
func (c *Cache) GetCertificate(key [32]byte) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	cert, ok := c.certs[key]
	if ok {
		c.stats.CertHits++
	} else {
		c.stats.CertMisses++
	}
	return cert, ok
}

// PutCertificate stores a plan certificate under an artifact hash.
// Certificates are immutable after insertion: the content address means
// any change to the artifact lands on a different key.
func (c *Cache) PutCertificate(key [32]byte, cert any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.certs[key] = cert
}

// ArtifactHash content-addresses a compiled artifact: the full network
// definition (shapes, quantizer grids, weights, layer wiring) plus every
// Config field that changes the emitted plans. Config.Parallel and the
// cache pointer are excluded — neither alters the lowered output.
// Certificates stored under this hash are therefore valid exactly as
// long as the artifact they certify is byte-identical.
func ArtifactHash(c *Compiled) [32]byte {
	h := sha256.New()
	w := &keyWriter{h: h}
	w.ints(3) // distinct key space from convKey (1) and opsKey (2)
	net := c.Net
	fmt.Fprintf(h, "%s\x00", net.Name)
	w.ints(int64(net.InputShape.C), int64(net.InputShape.H), int64(net.InputShape.W))
	w.ints(int64(net.InputQ.Bits))
	w.bools(net.InputQ.Signed)
	w.ints(int64(len(net.Layers)))
	for i := range net.Layers {
		l := &net.Layers[i]
		fmt.Fprintf(h, "%s\x00", l.Name)
		w.ints(int64(l.Kind), int64(len(l.Inputs)))
		for _, in := range l.Inputs {
			w.ints(int64(in))
		}
		w.ints(int64(l.Stride), int64(l.Pad),
			int64(l.Pool.K), int64(l.Pool.Stride),
			int64(l.Q.Bits), int64(l.ShareID))
		w.bools(l.Q.Signed, l.ReLU)
		if l.W != nil {
			w.ints(int64(l.W.Cout), int64(l.W.Cin), int64(l.W.Fh), int64(l.W.Fw))
			h.Write(int8Bytes(l.W.W))
		}
	}
	cfg := c.Cfg
	w.ints(baseTempBudget, tileFloor)
	w.bools(cfg.CSE, cfg.KeepPrograms)
	w.params(cfg.Par)
	var key [32]byte
	h.Sum(key[:0])
	return key
}

// keyWriter streams the content that defines a cache key into a hash.
type keyWriter struct {
	h   interface{ Write([]byte) (int, error) }
	buf [8]byte
}

func (w *keyWriter) ints(vs ...int64) {
	for _, v := range vs {
		binary.LittleEndian.PutUint64(w.buf[:], uint64(v))
		w.h.Write(w.buf[:])
	}
}

func (w *keyWriter) bools(vs ...bool) {
	for _, v := range vs {
		if v {
			w.h.Write([]byte{1})
		} else {
			w.h.Write([]byte{0})
		}
	}
}

func (w *keyWriter) params(p energy.Params) {
	// The cost-model constants enter every emitted statistic, so any
	// change must miss. %#v is stable for a flat struct of numbers.
	fmt.Fprintf(w.h, "%#v", p)
}

// convKey hashes everything the lowering of one conv/linear layer depends
// on. Config.Parallel and the quantizer step size are deliberately
// excluded: neither changes the emitted plan (lowering is bit-identical
// serial vs parallel, and compilation consumes only the integer grid).
func convKey(l *model.Layer, plan *LayerPlan, ai actInfo, cfg Config, pool int) [32]byte {
	h := sha256.New()
	w := &keyWriter{h: h}
	w.ints(1) // key-format version
	w.ints(int64(l.Kind), int64(l.Stride), int64(l.Pad))
	w.ints(int64(plan.InC), int64(plan.InH), int64(plan.InW),
		int64(plan.OutC), int64(plan.OutH), int64(plan.OutW))
	w.ints(int64(ai.Bits), ai.Lo, ai.Hi)
	w.bools(ai.Unsigned)
	wt := l.W
	w.ints(int64(wt.Cout), int64(wt.Cin), int64(wt.Fh), int64(wt.Fw))
	h.Write(int8Bytes(wt.W))
	w.ints(baseTempBudget, tileFloor, int64(pool))
	w.bools(cfg.CSE, cfg.KeepPrograms)
	w.params(cfg.Par)
	var key [32]byte
	h.Sum(key[:0])
	return key
}

// opsKey hashes what CountOps depends on for one layer: the weights and
// nothing else (full untiled slices, both CSE settings are computed).
func opsKey(l *model.Layer) [32]byte {
	h := sha256.New()
	w := &keyWriter{h: h}
	w.ints(2) // distinct key space from convKey
	wt := l.W
	w.ints(int64(wt.Cout), int64(wt.Cin), int64(wt.Fh), int64(wt.Fw))
	h.Write(int8Bytes(wt.W))
	var key [32]byte
	h.Sum(key[:0])
	return key
}

// int8Bytes reinterprets ternary weight values as raw bytes for hashing.
func int8Bytes(s []int8) []byte {
	b := make([]byte, len(s))
	for i, v := range s {
		b[i] = byte(v)
	}
	return b
}
