package dataflow

import (
	"strings"
	"sync"
	"testing"

	"rtmap/internal/ap"
	"rtmap/internal/core"
	"rtmap/internal/model"
	"rtmap/internal/sim"
	"rtmap/internal/verify"
)

// compiled caches one compiled artifact per zoo model for the whole
// test binary — compilation dominates test time, the artifacts are
// treated as read-only (corruption tests must restore what they touch).
var (
	compiledMu sync.Mutex
	compiledBy = map[string]*core.Compiled{}
)

func compileZoo(t *testing.T, name string) *core.Compiled {
	t.Helper()
	compiledMu.Lock()
	defer compiledMu.Unlock()
	if c, ok := compiledBy[name]; ok {
		return c
	}
	net, err := model.Build(name, model.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.KeepPrograms = true
	comp, err := core.Compile(net, cfg)
	if err != nil {
		t.Fatalf("compiling %s: %v", name, err)
	}
	compiledBy[name] = comp
	return comp
}

// The builtin zoo verifies clean and each clean artifact yields a
// well-formed certificate.
func TestCheckZooClean(t *testing.T) {
	for _, name := range []string{"tinycnn", "tinyresnet", "miniresnet18"} {
		comp := compileZoo(t, name)
		cert, err := Check(comp)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if cert.Version != CertVersion {
			t.Errorf("%s: certificate version %d, want %d", name, cert.Version, CertVersion)
		}
		if len(cert.Artifact) != 64 {
			t.Errorf("%s: artifact hash %q is not 64 hex chars", name, cert.Artifact)
		}
		if cert.Programs <= 0 {
			t.Errorf("%s: certificate covers %d programs", name, cert.Programs)
		}
		if len(cert.Layers) != len(comp.Net.Layers) {
			t.Errorf("%s: %d layer facts for %d layers", name, len(cert.Layers), len(comp.Net.Layers))
		}
		for _, f := range cert.Layers {
			if f.Lo > f.Hi || f.Bits <= 0 {
				t.Errorf("%s: degenerate fact %+v", name, f)
			}
		}
	}
}

// Certificates survive an encode→decode→re-validate round trip, and a
// decoded certificate whose facts were tampered with is refuted under
// the dataflow-certificate invariant.
func TestCertificateRoundTrip(t *testing.T) {
	comp := compileZoo(t, "tinyresnet")
	cert, err := Check(comp)
	if err != nil {
		t.Fatal(err)
	}
	data, err := cert.Encode()
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeCertificate(data)
	if err != nil {
		t.Fatal(err)
	}
	if err := back.Validate(comp); err != nil {
		t.Fatalf("round-tripped certificate does not validate: %v", err)
	}

	back.Layers[0].Hi++
	err = back.Validate(comp)
	var ve *verify.Error
	if !asVerifyError(err, &ve) {
		t.Fatalf("tampered certificate validated: %v", err)
	}
	if ve.Diags[0].Invariant != InvCertificate {
		t.Fatalf("tampered certificate refuted under %q, want %q", ve.Diags[0].Invariant, InvCertificate)
	}

	if _, err := DecodeCertificate([]byte("{")); err == nil {
		t.Fatal("malformed JSON decoded")
	}
	if _, err := DecodeCertificate([]byte(`{"version":0}`)); err == nil {
		t.Fatal("certificate without version/artifact decoded")
	}
}

// diagAt is a diagnostic's tile program location.
type diagAt struct{ layer, strip, tile int }

func asVerifyError(err error, out **verify.Error) bool {
	ve, ok := err.(*verify.Error)
	if ok {
		*out = ve
	}
	return ok
}

// VerifyOrCertify pays the full admission proof exactly once per
// artifact hash: the first admission misses and persists, later
// admissions hit and run neither pass. A corruption only the plan audit
// can see is refuted on a miss.
func TestVerifyOrCertifyCaches(t *testing.T) {
	comp := compileZoo(t, "tinycnn")
	cache := core.NewCache()

	cert1, hit, err := VerifyOrCertify(comp, cache)
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Fatal("first admission reported a certificate hit")
	}
	cert2, hit, err := VerifyOrCertify(comp, cache)
	if err != nil {
		t.Fatal(err)
	}
	if !hit {
		t.Fatal("second admission of the identical artifact re-verified")
	}
	if cert1 != cert2 {
		t.Fatal("certificate hit returned a different certificate")
	}
	if st := cache.Stats(); st.CertHits != 1 || st.CertMisses != 1 {
		t.Fatalf("cache counters hits=%d misses=%d, want 1/1", st.CertHits, st.CertMisses)
	}

	// A channel boundary moved one instruction into the next fragment
	// (TestPartsCatchMutations' move-boundary operator) changes neither
	// the artifact hash nor anything Check reads: only the plan audit's
	// parts proof refutes it.
	bad := cloneCompiled(comp)
	var at *diagAt
	for _, lp := range bad.Layers {
		for s, sp := range lp.StripPlans {
			for ti, tp := range sp.Programs {
				if at != nil || tp == nil || len(tp.ChanAt) < 3 || tp.ChanAt[1]+1 >= tp.ChanAt[2] {
					continue
				}
				tp.ChanAt[1]++
				at = &diagAt{lp.Index, s, ti}
			}
		}
	}
	if at == nil {
		t.Fatal("no tile program of three or more fragments to corrupt")
	}
	if _, err := Check(bad); err != nil {
		t.Fatalf("Check sees the moved boundary (%v); the case does not isolate the plan audit", err)
	}

	// Once the clean artifact is certified, the corrupted one of the same
	// hash hits: neither pass runs.
	cert3, hit, err := VerifyOrCertify(bad, cache)
	if err != nil || !hit || cert3 != cert1 {
		t.Fatalf("certified hash: hit=%v err=%v same certificate=%v, want a hit running neither pass", hit, err, cert3 == cert1)
	}

	// On a fresh cache the proof runs and the plan audit refutes it,
	// located at the corrupted program, and no certificate is stored.
	fresh := core.NewCache()
	_, hit, err = VerifyOrCertify(bad, fresh)
	var ve *verify.Error
	if hit || !asVerifyError(err, &ve) {
		t.Fatalf("corrupted plan on a fresh cache: hit=%v err=%v, want a *verify.Error", hit, err)
	}
	for _, d := range ve.Diags {
		if d.Invariant != ap.InvParts || (diagAt{d.Layer, d.Strip, d.Tile}) != *at {
			t.Fatalf("diagnostic %v, want %s at layer %d strip %d tile %d", d, ap.InvParts, at.layer, at.strip, at.tile)
		}
	}
	if _, ok := fresh.GetCertificate(core.ArtifactHash(bad)); ok {
		t.Fatal("a refuted artifact left a certificate behind")
	}

	// nil cache degrades to plain verification.
	if _, hit, err := VerifyOrCertify(comp, nil); err != nil || hit {
		t.Fatalf("nil-cache verify: hit=%v err=%v", hit, err)
	}
}

// Changing the artifact — here, one flipped weight — changes the
// content hash, so a stored certificate can never be trusted for a
// different artifact: the modified model misses the cache and is
// verified from scratch.
func TestCertificateInvalidatedByArtifactChange(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.KeepPrograms = true
	build := func(mutate bool) *core.Compiled {
		net := model.TinyCNN(model.DefaultConfig())
		if mutate {
			w := net.Layers[0].W
			if w.At(0, 0, 0, 0) == 0 {
				w.Set(0, 0, 0, 0, 1)
			} else {
				w.Set(0, 0, 0, 0, 0)
			}
		}
		comp, err := core.Compile(net, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return comp
	}
	orig, mod := build(false), build(true)
	if core.ArtifactHash(orig) == core.ArtifactHash(mod) {
		t.Fatal("flipping a weight did not change the artifact hash")
	}

	cache := core.NewCache()
	if _, hit, err := VerifyOrCertify(orig, cache); err != nil || hit {
		t.Fatalf("seeding: hit=%v err=%v", hit, err)
	}
	_, hit, err := VerifyOrCertify(mod, cache)
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Fatal("modified artifact was served the original's certificate")
	}
	if st := cache.Stats(); st.CertMisses != 2 {
		t.Fatalf("%d cert misses, want 2", st.CertMisses)
	}
}

// shardPlan partitions a compiled zoo model into k pipeline stages
// using the analyzer's per-layer costs, as serve does.
func shardPlan(t *testing.T, comp *core.Compiled, k int) *core.ShardPlan {
	t.Helper()
	pr, err := sim.AnalyzePipeline(comp, sim.Analyze(comp), k)
	if err != nil {
		t.Fatal(err)
	}
	return pr.Shard
}

// Partitioned zoo models — skip connections included — certify clean,
// and every class of shard-plan corruption is refuted under the
// dataflow-shard invariant.
func TestAuditShard(t *testing.T) {
	comp := compileZoo(t, "tinyresnet")
	for _, k := range []int{2, 3} {
		sp := shardPlan(t, comp, k)
		if err := AuditShard(comp, sp); err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
	}

	sp := shardPlan(t, comp, 2)
	corruptions := []struct {
		name   string
		mutate func(*core.ShardPlan)
		want   string
	}{
		{"drop-transfer", func(p *core.ShardPlan) {
			p.Stages[0].XferRefs = p.Stages[0].XferRefs[:len(p.Stages[0].XferRefs)-1]
		}, "missing from the transfer set"},
		{"add-spurious-transfer", func(p *core.ShardPlan) {
			p.Stages[0].XferRefs = append(p.Stages[0].XferRefs, len(comp.Layers)-1)
		}, "not live across the boundary"},
		{"perturb-payload-bits", func(p *core.ShardPlan) {
			p.Stages[0].XferBits += 8
		}, "boundary payload"},
		{"overlap-stages", func(p *core.ShardPlan) {
			p.Stages[1].Lo--
		}, "stages must tile the layer range"},
		{"truncate-coverage", func(p *core.ShardPlan) {
			p.Stages[1].Hi--
		}, "last stage ends"},
		{"final-stage-transfers", func(p *core.ShardPlan) {
			p.Stages[1].XferRefs = []int{0}
			p.Stages[1].XferBits = 64
		}, "final stage declares"},
	}
	for _, c := range corruptions {
		bad := *sp
		bad.Stages = append([]core.StageRange(nil), sp.Stages...)
		for i := range bad.Stages {
			bad.Stages[i].XferRefs = append([]int(nil), sp.Stages[i].XferRefs...)
		}
		c.mutate(&bad)
		err := AuditShard(comp, &bad)
		if err == nil {
			t.Errorf("%s: corruption not detected", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v does not mention %q", c.name, err, c.want)
		}
		var ve *verify.Error
		if !asVerifyError(err, &ve) {
			t.Errorf("%s: error is not a *verify.Error", c.name)
			continue
		}
		for _, d := range ve.Diags {
			if d.Invariant != InvShard {
				t.Errorf("%s: diagnostic under %q, want %q", c.name, d.Invariant, InvShard)
			}
		}
	}
}
