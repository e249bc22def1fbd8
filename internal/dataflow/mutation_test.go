package dataflow

import (
	"encoding/json"
	"math"
	"math/rand/v2"
	"os"
	"sort"
	"testing"

	"rtmap/internal/ap"
	"rtmap/internal/codegen"
	"rtmap/internal/core"
	"rtmap/internal/model"
	"rtmap/internal/sim"
	"rtmap/internal/tensor"
)

// cloneCompiled deep-copies an artifact so a mutation cannot leak into
// the shared per-test-binary compile cache. Tile programs are rebuilt
// field by field (they memoize an exec plan behind a sync.Once that
// must start fresh in the clone).
func cloneCompiled(c *core.Compiled) *core.Compiled {
	net := *c.Net
	net.Layers = append([]model.Layer(nil), c.Net.Layers...)
	for i := range net.Layers {
		l := &net.Layers[i]
		l.Inputs = append([]int(nil), l.Inputs...)
		if l.W != nil {
			w := *l.W
			w.W = append([]int8(nil), l.W.W...)
			l.W = &w
		}
	}
	out := &core.Compiled{Net: &net, Cfg: c.Cfg, PoolArrays: c.PoolArrays}
	out.Cfg.Cache = nil
	for _, lp := range c.Layers {
		q := *lp
		q.TileSizes = append([]int(nil), lp.TileSizes...)
		q.StripPlans = make([]core.StripPlan, len(lp.StripPlans))
		for s := range lp.StripPlans {
			sp := &lp.StripPlans[s]
			q.StripPlans[s].Channels = append([]int(nil), sp.Channels...)
			q.StripPlans[s].Programs = make([]*codegen.TileProgram, len(sp.Programs))
			for t, tp := range sp.Programs {
				if tp == nil {
					continue
				}
				nt := &codegen.TileProgram{
					Phys:    append([]int(nil), tp.Phys...),
					AccVirt: append([]int(nil), tp.AccVirt...),
					ChanAt:  append([]int(nil), tp.ChanAt...),
					Stats:   tp.Stats,
				}
				if tp.Prog != nil {
					p := &ap.Program{
						Carry:  tp.Prog.Carry,
						Cols:   append([]ap.Col(nil), tp.Prog.Cols...),
						Instrs: append([]ap.Instr(nil), tp.Prog.Instrs...),
						Dsts:   append([]int(nil), tp.Prog.Dsts...),
					}
					nt.Prog = p
				}
				if tp.InputBindings != nil {
					nt.InputBindings = make(map[int][2]int, len(tp.InputBindings))
					for k, v := range tp.InputBindings {
						nt.InputBindings[k] = v
					}
				}
				q.StripPlans[s].Programs[t] = nt
			}
		}
		out.Layers = append(out.Layers, &q)
	}
	return out
}

// convSite is one (layer, strip, tile) program location.
type convSite struct {
	lp   *core.LayerPlan
	l    int // layer index
	s, t int
	tp   *codegen.TileProgram
}

// convSites enumerates every retained conv tile program.
func convSites(c *core.Compiled) []convSite {
	var sites []convSite
	for l, lp := range c.Layers {
		if lp.Class != core.ClassConv {
			continue
		}
		for s := range lp.StripPlans {
			for t, tp := range lp.StripPlans[s].Programs {
				if tp != nil {
					sites = append(sites, convSite{lp, l, s, t, tp})
				}
			}
		}
	}
	return sites
}

// sortedVirts returns a tile program's bound virtual columns in
// deterministic order (map iteration is randomized; the harness must
// not be).
func sortedVirts(tp *codegen.TileProgram) []int {
	virts := make([]int, 0, len(tp.InputBindings))
	for v := range tp.InputBindings {
		virts = append(virts, v)
	}
	sort.Ints(virts)
	return virts
}

// artifactMutation is one seeded cross-tile corruption operator over a
// cloned compiled artifact. apply mutates in place and reports whether
// the operator was applicable to this artifact.
type artifactMutation struct {
	name  string
	apply func(rng *rand.Rand, c *core.Compiled) bool
}

// pickSiteWithBindings returns a random tile program with at least one
// input binding.
func pickSiteWithBindings(rng *rand.Rand, c *core.Compiled) (convSite, bool) {
	var cand []convSite
	for _, site := range convSites(c) {
		if len(site.tp.InputBindings) > 0 {
			cand = append(cand, site)
		}
	}
	if len(cand) == 0 {
		return convSite{}, false
	}
	return cand[rng.IntN(len(cand))], true
}

var artifactMutations = []artifactMutation{
	// Reroute a consumed column to a different producer channel: the tile
	// now reads another channel's activations.
	{"reroute-producer-channel", func(rng *rand.Rand, c *core.Compiled) bool {
		site, ok := pickSiteWithBindings(rng, c)
		if !ok {
			return false
		}
		sp := &site.lp.StripPlans[site.s]
		if len(sp.Channels) < 2 {
			return false
		}
		virts := sortedVirts(site.tp)
		v := virts[rng.IntN(len(virts))]
		b := site.tp.InputBindings[v]
		b[0] = (b[0] + 1 + rng.IntN(len(sp.Channels)-1)) % len(sp.Channels)
		site.tp.InputBindings[v] = b
		return true
	}},
	// Reroute to a different patch position of the same channel.
	{"reroute-producer-patch", func(rng *rand.Rand, c *core.Compiled) bool {
		site, ok := pickSiteWithBindings(rng, c)
		if !ok || site.lp.K < 2 {
			return false
		}
		virts := sortedVirts(site.tp)
		v := virts[rng.IntN(len(virts))]
		b := site.tp.InputBindings[v]
		b[1] = (b[1] + 1 + rng.IntN(site.lp.K-1)) % site.lp.K
		site.tp.InputBindings[v] = b
		return true
	}},
	// Drop a consumed column outright: a live (channel, patch) loses its
	// producer edge.
	{"drop-binding", func(rng *rand.Rand, c *core.Compiled) bool {
		site, ok := pickSiteWithBindings(rng, c)
		if !ok {
			return false
		}
		virts := sortedVirts(site.tp)
		delete(site.tp.InputBindings, virts[rng.IntN(len(virts))])
		return true
	}},
	// Record the wrong activation width in the plan.
	{"perturb-actbits", func(rng *rand.Rand, c *core.Compiled) bool {
		sites := convSites(c)
		if len(sites) == 0 {
			return false
		}
		sites[rng.IntN(len(sites))].lp.ActBits++
		return true
	}},
	// Record the wrong signedness.
	{"flip-act-unsigned", func(rng *rand.Rand, c *core.Compiled) bool {
		sites := convSites(c)
		if len(sites) == 0 {
			return false
		}
		lp := sites[rng.IntN(len(sites))].lp
		lp.ActUnsigned = !lp.ActUnsigned
		return true
	}},
	// Shrink the accumulator allocation below the proven-safe width.
	{"shrink-accwidth", func(rng *rand.Rand, c *core.Compiled) bool {
		sites := convSites(c)
		if len(sites) == 0 {
			return false
		}
		lp := sites[rng.IntN(len(sites))].lp
		if lp.AccWidth <= 1 {
			return false
		}
		lp.AccWidth--
		return true
	}},
	// Grow it: the stored columns no longer match the declared width.
	{"grow-accwidth", func(rng *rand.Rand, c *core.Compiled) bool {
		sites := convSites(c)
		if len(sites) == 0 {
			return false
		}
		sites[rng.IntN(len(sites))].lp.AccWidth++
		return true
	}},
	// Swap two resident channels: both columns still have producers, but
	// the wrong ones.
	{"swap-strip-channels", func(rng *rand.Rand, c *core.Compiled) bool {
		for _, site := range convSites(c) {
			sp := &site.lp.StripPlans[site.s]
			if len(sp.Channels) >= 2 {
				j := rng.IntN(len(sp.Channels) - 1)
				sp.Channels[j], sp.Channels[j+1] = sp.Channels[j+1], sp.Channels[j]
				return true
			}
		}
		return false
	}},
	// Drop a resident channel: one activation column loses its producer
	// strip-wide.
	{"drop-strip-channel", func(rng *rand.Rand, c *core.Compiled) bool {
		for _, site := range convSites(c) {
			sp := &site.lp.StripPlans[site.s]
			if len(sp.Channels) >= 2 {
				sp.Channels = sp.Channels[:len(sp.Channels)-1]
				return true
			}
		}
		return false
	}},
	// Drop a whole tile program.
	{"drop-program", func(rng *rand.Rand, c *core.Compiled) bool {
		sites := convSites(c)
		if len(sites) == 0 {
			return false
		}
		site := sites[rng.IntN(len(sites))]
		site.lp.StripPlans[site.s].Programs[site.t] = nil
		return true
	}},
	// Break the tile partition of the output channels.
	{"perturb-tilesize", func(rng *rand.Rand, c *core.Compiled) bool {
		sites := convSites(c)
		if len(sites) == 0 {
			return false
		}
		lp := sites[rng.IntN(len(sites))].lp
		lp.TileSizes[rng.IntN(len(lp.TileSizes))]++
		return true
	}},
	// Rebind an accumulator row to a different program column.
	{"perturb-accvirt", func(rng *rand.Rand, c *core.Compiled) bool {
		for _, site := range convSites(c) {
			if len(site.tp.AccVirt) == 0 || site.tp.Prog == nil {
				continue
			}
			r := rng.IntN(len(site.tp.AccVirt))
			site.tp.AccVirt[r] = (site.tp.AccVirt[r] + 1) % len(site.tp.Prog.Cols)
			return true
		}
		return false
	}},
	// Corrupt a consumed column's declared storage width.
	{"corrupt-col-width", func(rng *rand.Rand, c *core.Compiled) bool {
		site, ok := pickSiteWithBindings(rng, c)
		if !ok {
			return false
		}
		virts := sortedVirts(site.tp)
		site.tp.Prog.Cols[virts[rng.IntN(len(virts))]].Width++
		return true
	}},
	// Corrupt a consumed column's domain base.
	{"corrupt-col-base", func(rng *rand.Rand, c *core.Compiled) bool {
		site, ok := pickSiteWithBindings(rng, c)
		if !ok {
			return false
		}
		virts := sortedVirts(site.tp)
		site.tp.Prog.Cols[virts[rng.IntN(len(virts))]].Base++
		return true
	}},
	// Drop a sole producer weight: zero the only nonzero a live (channel,
	// patch) has among one tile's rows, so the live set shrinks under the
	// program that still consumes it.
	{"drop-sole-producer-weight", func(rng *rand.Rand, c *core.Compiled) bool {
		for _, site := range convSites(c) {
			lay := &c.Net.Layers[site.l]
			w := lay.W
			sp := &site.lp.StripPlans[site.s]
			rowLo := site.t * site.lp.TileSize
			rowHi := rowLo + site.lp.TileSizes[site.t]
			for _, global := range sp.Channels {
				if global >= w.Cin {
					continue
				}
				for kp := 0; kp < site.lp.K; kp++ {
					kh, kw := kp/w.Fw, kp%w.Fw
					sole, count := -1, 0
					for o := rowLo; o < rowHi && o < w.Cout; o++ {
						if w.At(o, global, kh, kw) != 0 {
							sole = o
							count++
						}
					}
					if count == 1 {
						w.Set(sole, global, kh, kw, 0)
						return true
					}
				}
			}
		}
		return false
	}},
	// Mark an accumulator Temp: the engine would recycle its storage
	// before the sums are read back.
	{"flag-acc-temp", func(rng *rand.Rand, c *core.Compiled) bool {
		sites := convSites(c)
		if len(sites) == 0 {
			return false
		}
		tp := sites[rng.IntN(len(sites))].tp
		if tp.Prog == nil || len(tp.AccVirt) == 0 {
			return false
		}
		tp.Prog.Cols[tp.AccVirt[rng.IntN(len(tp.AccVirt))]].Temp = true
		return true
	}},
	// Place a temp on an input plane's physical column, outside the pool.
	{"temp-off-pool", func(rng *rand.Rand, c *core.Compiled) bool {
		site, ok := pickSiteWithBindings(rng, c)
		if !ok {
			return false
		}
		var temps []int
		for v, col := range site.tp.Prog.Cols {
			if col.Temp {
				temps = append(temps, v)
			}
		}
		if len(temps) == 0 {
			return false
		}
		virts := sortedVirts(site.tp)
		site.tp.Phys[temps[rng.IntN(len(temps))]] = site.tp.Phys[virts[rng.IntN(len(virts))]]
		return true
	}},
	// Add a producer weight at a dead position: the live set grows under
	// a program that never consumes it.
	{"add-producer-weight", func(rng *rand.Rand, c *core.Compiled) bool {
		for _, site := range convSites(c) {
			lay := &c.Net.Layers[site.l]
			w := lay.W
			sp := &site.lp.StripPlans[site.s]
			rowLo := site.t * site.lp.TileSize
			rowHi := rowLo + site.lp.TileSizes[site.t]
			for _, global := range sp.Channels {
				if global >= w.Cin {
					continue
				}
				for kp := 0; kp < site.lp.K; kp++ {
					kh, kw := kp/w.Fw, kp%w.Fw
					dead := true
					for o := rowLo; o < rowHi && o < w.Cout; o++ {
						if w.At(o, global, kh, kw) != 0 {
							dead = false
							break
						}
					}
					if dead && rowLo < w.Cout {
						w.Set(rowLo, global, kh, kw, 1)
						return true
					}
				}
			}
		}
		return false
	}},
}

// shardMutation corrupts a cloned shard plan.
type shardMutation struct {
	name  string
	apply func(rng *rand.Rand, c *core.Compiled, sp *core.ShardPlan) bool
}

var shardMutations = []shardMutation{
	{"shard-drop-transfer", func(rng *rand.Rand, c *core.Compiled, sp *core.ShardPlan) bool {
		for i := range sp.Stages[:len(sp.Stages)-1] {
			st := &sp.Stages[i]
			if len(st.XferRefs) > 0 {
				k := rng.IntN(len(st.XferRefs))
				st.XferRefs = append(st.XferRefs[:k], st.XferRefs[k+1:]...)
				return true
			}
		}
		return false
	}},
	{"shard-spurious-transfer", func(rng *rand.Rand, c *core.Compiled, sp *core.ShardPlan) bool {
		st := &sp.Stages[0]
		st.XferRefs = append(st.XferRefs, len(c.Layers)-1)
		return true
	}},
	{"shard-perturb-bits", func(rng *rand.Rand, c *core.Compiled, sp *core.ShardPlan) bool {
		sp.Stages[rng.IntN(len(sp.Stages)-1)].XferBits += int64(1 + rng.IntN(64))
		return true
	}},
	{"shard-overlap-stages", func(rng *rand.Rand, c *core.Compiled, sp *core.ShardPlan) bool {
		if len(sp.Stages) < 2 || sp.Stages[1].Lo <= 1 {
			return false
		}
		sp.Stages[1].Lo--
		return true
	}},
	{"shard-truncate-coverage", func(rng *rand.Rand, c *core.Compiled, sp *core.ShardPlan) bool {
		last := &sp.Stages[len(sp.Stages)-1]
		if last.Hi-last.Lo < 2 {
			return false
		}
		last.Hi--
		return true
	}},
}

// certMutation corrupts a decoded certificate.
type certMutation struct {
	name  string
	apply func(rng *rand.Rand, cert *Certificate) bool
}

var certMutations = []certMutation{
	{"cert-corrupt-artifact", func(rng *rand.Rand, cert *Certificate) bool {
		i := rng.IntN(len(cert.Artifact))
		b := []byte(cert.Artifact)
		if b[i] == '0' {
			b[i] = '1'
		} else {
			b[i] = '0'
		}
		cert.Artifact = string(b)
		return true
	}},
	{"cert-perturb-range", func(rng *rand.Rand, cert *Certificate) bool {
		cert.Layers[rng.IntN(len(cert.Layers))].Hi++
		return true
	}},
	{"cert-perturb-width", func(rng *rand.Rand, cert *Certificate) bool {
		f := &cert.Layers[rng.IntN(len(cert.Layers))]
		f.Bits--
		return true
	}},
	{"cert-flip-sign", func(rng *rand.Rand, cert *Certificate) bool {
		f := &cert.Layers[rng.IntN(len(cert.Layers))]
		f.Unsigned = !f.Unsigned
		return true
	}},
	{"cert-drop-layer", func(rng *rand.Rand, cert *Certificate) bool {
		cert.Layers = cert.Layers[:len(cert.Layers)-1]
		return true
	}},
	{"cert-wrong-version", func(rng *rand.Rand, cert *Certificate) bool {
		cert.Version++
		return true
	}},
}

// cloneCert copies a certificate for mutation.
func cloneCert(c *Certificate) *Certificate {
	q := *c
	q.Layers = append([]LayerFact(nil), c.Layers...)
	return &q
}

func mutationInput(seed uint64, s tensor.Shape) *tensor.Float {
	rng := rand.New(rand.NewPCG(seed, seed^0xf00d))
	in := tensor.NewFloat(s)
	for i := range in.Data {
		in.Data[i] = float32(math.Abs(rng.NormFloat64())) * 0.5
	}
	return in
}

// tracesEqual compares two integer traces layer by layer.
func tracesEqual(a, b *model.IntTrace) bool {
	if len(a.Outputs) != len(b.Outputs) {
		return false
	}
	for i := range a.Outputs {
		if !a.Outputs[i].Equal(b.Outputs[i]) {
			return false
		}
	}
	return true
}

// opTally is one operator's row in the kill-rate report.
type opTally struct {
	Total  int `json:"total"`
	Killed int `json:"killed"`
}

// Mutation test of the whole-model dataflow verifier: seeded cross-tile
// corruptions over cloned artifacts, shard plans and certificates must
// be caught at ≥95% overall, and every escapee must be proved
// bit-identical to the original by differential execution. The kill
// table is written to $RTMAP_MUTATION_OUT (CI commits it as
// bench/MUTATION_dataflow.json).
func TestDataflowCatchesMutations(t *testing.T) {
	tally := map[string]*opTally{}
	record := func(name string, killed bool) {
		tl := tally[name]
		if tl == nil {
			tl = &opTally{}
			tally[name] = tl
		}
		tl.Total++
		if killed {
			tl.Killed++
		}
	}

	// Artifact domain: mutate clones of two compiled models, verify, and
	// differentially execute escapees.
	const artifactTrials = 16
	for _, name := range []string{"tinycnn", "tinyresnet"} {
		orig := compileZoo(t, name)
		origOut := map[uint64]*model.IntTrace{}
		for trial := 0; trial < artifactTrials; trial++ {
			rng := rand.New(rand.NewPCG(uint64(trial), 0xdf01))
			for _, mu := range artifactMutations {
				mut := cloneCompiled(orig)
				if !mu.apply(rng, mut) {
					continue
				}
				if _, err := Check(mut); err != nil {
					record(mu.name, true)
					continue
				}
				record(mu.name, false)
				// Escapee: prove the mutant executes bit-identically.
				seed := uint64(trial)
				in := mutationInput(seed, orig.Net.InputShape)
				want, ok := origOut[seed]
				if !ok {
					var err error
					want, err = sim.ForwardAP(orig, in)
					if err != nil {
						t.Fatal(err)
					}
					origOut[seed] = want
				}
				got, err := sim.ForwardAP(mut, in)
				if err != nil || !tracesEqual(want, got) {
					t.Fatalf("%s: %s mutant passed verification but diverges from the original (err=%v)",
						name, mu.name, err)
				}
			}
		}
	}

	// Shard domain: mutate clones of certified shard plans; escapees must
	// execute bit-identically through the sharded path.
	comp := compileZoo(t, "tinyresnet")
	for trial := 0; trial < 20; trial++ {
		rng := rand.New(rand.NewPCG(uint64(trial), 0xdf02))
		k := 2 + trial%2
		base := shardPlan(t, comp, k)
		for _, mu := range shardMutations {
			mut := *base
			mut.Stages = append([]core.StageRange(nil), base.Stages...)
			for i := range mut.Stages {
				mut.Stages[i].XferRefs = append([]int(nil), base.Stages[i].XferRefs...)
			}
			if !mu.apply(rng, comp, &mut) {
				continue
			}
			if err := AuditShard(comp, &mut); err != nil {
				record(mu.name, true)
				continue
			}
			record(mu.name, false)
			in := mutationInput(uint64(trial), comp.Net.InputShape)
			want, err1 := sim.ForwardAPSharded(comp, base, in)
			got, err2 := sim.ForwardAPSharded(comp, &mut, in)
			if err1 != nil || err2 != nil || !tracesEqual(want, got) {
				t.Fatalf("%s mutant passed shard certification but diverges (err1=%v err2=%v)",
					mu.name, err1, err2)
			}
		}
	}

	// Certificate domain: tampered certificates must fail Validate;
	// an escapee must be byte-identical re-encoded (a no-op mutation).
	cert, err := Check(comp)
	if err != nil {
		t.Fatal(err)
	}
	origEnc, err := cert.Encode()
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 20; trial++ {
		rng := rand.New(rand.NewPCG(uint64(trial), 0xdf03))
		for _, mu := range certMutations {
			mut := cloneCert(cert)
			if !mu.apply(rng, mut) {
				continue
			}
			if err := mut.Validate(comp); err != nil {
				record(mu.name, true)
				continue
			}
			record(mu.name, false)
			enc, err := mut.Encode()
			if err != nil || string(enc) != string(origEnc) {
				t.Fatalf("%s mutant passed Validate but is not byte-identical to the original certificate", mu.name)
			}
		}
	}

	names := make([]string, 0, len(tally))
	total, killed := 0, 0
	for name, tl := range tally {
		names = append(names, name)
		total += tl.Total
		killed += tl.Killed
	}
	sort.Strings(names)
	for _, name := range names {
		tl := tally[name]
		t.Logf("%-28s %3d/%3d", name, tl.Killed, tl.Total)
	}
	if len(tally) < 10 {
		t.Fatalf("only %d corruption operators applied; want >= 10", len(tally))
	}
	if total < 500 {
		t.Fatalf("mutation harness generated only %d mutants; generator regressed", total)
	}
	rate := float64(killed) / float64(total)
	t.Logf("killed %d/%d mutants (%.1f%%)", killed, total, 100*rate)

	if out := os.Getenv("RTMAP_MUTATION_OUT"); out != "" {
		report := struct {
			Verifier  string              `json:"verifier"`
			Total     int                 `json:"total"`
			Killed    int                 `json:"killed"`
			Rate      float64             `json:"rate"`
			Operators map[string]*opTally `json:"operators"`
		}{"dataflow", total, killed, rate, tally}
		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	if rate < 0.95 {
		t.Fatalf("mutation kill rate %.1f%% < 95%% (%d/%d)", 100*rate, killed, total)
	}
}
