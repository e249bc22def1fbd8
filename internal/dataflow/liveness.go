package dataflow

import (
	"fmt"

	"rtmap/internal/core"
	"rtmap/internal/model"
	"rtmap/internal/verify"
)

// auditLiveness proves the cross-program dataflow of every conv/linear
// layer compiled with KeepPrograms: channel residency (which strip
// produces which activation column), tile coverage, and — per tile
// program — that the consumed input set equals the live set re-derived
// from the layer's ternary weights, that every consumed column has
// exactly one producer slot, and that every column's storage format
// matches the layer's activation band. The checks share no code with
// the codegen path that emitted the programs.
func auditLiveness(comp *core.Compiled) []verify.Diagnostic {
	var diags []verify.Diagnostic
	name := modelName(comp)
	for i, plan := range comp.Layers {
		if plan.Class != core.ClassConv || len(plan.StripPlans) == 0 {
			continue
		}
		diags = append(diags, auditConvLayer(comp, name, i, plan)...)
	}
	return diags
}

// auditConvLayer audits one conv/linear layer's strip/tile program grid.
func auditConvLayer(comp *core.Compiled, name string, idx int, plan *core.LayerPlan) []verify.Diagnostic {
	var diags []verify.Diagnostic
	flag := func(strip, tile, op int, invariant, format string, args ...any) {
		diags = append(diags, verify.Diagnostic{
			Model: name, Layer: idx, LayerName: plan.Name,
			Strip: strip, Tile: tile, Op: op,
			Invariant: invariant, Detail: fmt.Sprintf(format, args...),
		})
	}
	lay := &comp.Net.Layers[idx]
	cin := plan.InCEffective()
	capacity := plan.Planes * plan.ChansPerPlane
	if capacity <= 0 {
		flag(-1, -1, -1, InvStructure, "non-positive strip capacity %d×%d", plan.Planes, plan.ChansPerPlane)
		return diags
	}

	// Channel residency: strip s holds global channels
	// [s·capacity, min((s+1)·capacity, cin)), each exactly once across
	// the whole layer — the single-producer property of every
	// activation column.
	if len(plan.StripPlans) != plan.Strips {
		flag(-1, -1, -1, InvStructure, "%d strip plans for %d strips", len(plan.StripPlans), plan.Strips)
	}
	produced := make([]int, cin) // producers per global channel
	for s := range plan.StripPlans {
		sp := &plan.StripPlans[s]
		for j, ch := range sp.Channels {
			if ch < 0 || ch >= cin {
				flag(s, -1, -1, InvProducer, "resident slot %d holds channel %d outside [0,%d)", j, ch, cin)
				continue
			}
			produced[ch]++
			if want := s*capacity + j; ch != want {
				flag(s, -1, -1, InvProducer, "resident slot %d holds channel %d, residency law requires %d", j, ch, want)
			}
		}
	}
	for ch, n := range produced {
		if n != 1 {
			flag(-1, -1, -1, InvProducer, "activation channel %d has %d producers, want exactly 1", ch, n)
		}
	}

	// Tile coverage: the declared tile sizes partition the output
	// channels in order.
	if len(plan.TileSizes) != plan.Tiles {
		flag(-1, -1, -1, InvStructure, "%d tile sizes for %d tiles", len(plan.TileSizes), plan.Tiles)
	}
	covered := 0
	for t, ts := range plan.TileSizes {
		want := plan.OutC - t*plan.TileSize
		if want > plan.TileSize {
			want = plan.TileSize
		}
		if ts != want || ts <= 0 {
			flag(-1, t, -1, InvStructure, "tile size %d, partition of %d output channels requires %d", ts, plan.OutC, want)
		}
		covered += ts
	}
	if covered != plan.OutC {
		flag(-1, -1, -1, InvStructure, "tile sizes cover %d output channels, layer has %d", covered, plan.OutC)
	}

	for s := range plan.StripPlans {
		sp := &plan.StripPlans[s]
		if len(sp.Programs) != len(plan.TileSizes) {
			flag(s, -1, -1, InvStructure, "%d tile programs, want %d", len(sp.Programs), len(plan.TileSizes))
			continue
		}
		rowLo := 0
		for t := range sp.Programs {
			tsize := plan.TileSizes[t]
			diags = append(diags, auditTileIO(comp, name, idx, plan, lay, s, t, rowLo, tsize, sp)...)
			rowLo += tsize
		}
	}
	return diags
}

// auditTileIO audits the I/O surface of one (strip, tile) program: the
// accumulator columns it defines and the input columns it consumes.
func auditTileIO(comp *core.Compiled, name string, idx int, plan *core.LayerPlan,
	lay *model.Layer, s, t, rowLo, tsize int, sp *core.StripPlan) []verify.Diagnostic {
	var diags []verify.Diagnostic
	flag := func(op int, invariant, format string, args ...any) {
		diags = append(diags, verify.Diagnostic{
			Model: name, Layer: idx, LayerName: plan.Name,
			Strip: s, Tile: t, Op: op,
			Invariant: invariant, Detail: fmt.Sprintf(format, args...),
		})
	}
	tp := sp.Programs[t]
	if tp == nil || tp.Prog == nil {
		flag(-1, InvStructure, "tile has no program")
		return diags
	}
	prog := tp.Prog
	if len(tp.Phys) != len(prog.Cols) {
		flag(-1, InvStructure, "%d physical column mappings for %d columns", len(tp.Phys), len(prog.Cols))
		return diags
	}

	// Defined values: one accumulator per tile row, stored at the
	// plan's accumulator width, packed AccWidth domains apart.
	if len(tp.AccVirt) != tsize {
		flag(-1, InvStructure, "%d accumulator columns for tile of %d rows", len(tp.AccVirt), tsize)
	}
	slots := 0
	if plan.AccWidth > 0 {
		slots = comp.Cfg.Par.DomainsPerTrack / plan.AccWidth
	}

	// Temp flags. The engine recycles a temp's storage once the program
	// is done with it, so nothing read from outside the program may be
	// one: not the carry, an accumulator or an input. And a temp is what
	// the column pool hands out, the physical columns after carry, input
	// planes and accumulators: [1 + Planes·K + ⌈TileSize/slots⌉, CAMCols).
	if c := prog.Carry; c >= 0 && c < len(prog.Cols) && prog.Cols[c].Temp {
		flag(-1, InvTemp, "carry column %d is marked temp", c)
	}
	for r, v := range tp.AccVirt {
		if v >= 0 && v < len(prog.Cols) && prog.Cols[v].Temp {
			flag(-1, InvTemp, "accumulator %d's column %d is marked temp", r, v)
		}
	}
	for v, bind := range tp.InputBindings {
		if v >= 0 && v < len(prog.Cols) && prog.Cols[v].Temp {
			flag(-1, InvTemp, "input (channel %d, patch %d) column %d is marked temp", bind[0], bind[1], v)
		}
	}
	tempLo := 1 + plan.Planes*plan.K + (plan.TileSize+max(slots, 1)-1)/max(slots, 1)
	for v, col := range prog.Cols {
		if p := tp.Phys[v]; col.Temp && (p < tempLo || p >= comp.Cfg.Par.CAMCols) {
			flag(-1, InvTemp, "temp column %d on physical column %d, outside the temp pool [%d, %d)", v, p, tempLo, comp.Cfg.Par.CAMCols)
		}
	}
	accCols := map[int]int{}
	for r, v := range tp.AccVirt {
		if v < 0 || v >= len(prog.Cols) {
			flag(-1, InvStructure, "accumulator %d bound to column %d outside the program", r, v)
			continue
		}
		if prev, dup := accCols[v]; dup {
			flag(-1, InvProducer, "accumulator rows %d and %d share column %d: one output row has no producer", prev, r, v)
		}
		accCols[v] = r
		col := prog.Cols[v]
		if col.Width != plan.AccWidth {
			flag(-1, InvFormat, "accumulator %d stored at %d bits, plan allocates %d", r, col.Width, plan.AccWidth)
		}
		if slots > 0 && col.Base != (r%slots)*plan.AccWidth {
			flag(-1, InvFormat, "accumulator %d at domain base %d, packing law requires %d", r, col.Base, (r%slots)*plan.AccWidth)
		}
	}

	// Consumed values: every input binding names an in-strip producer
	// slot exactly once, at the layer's activation band, on the
	// physical column and domain the residency law assigns it.
	k := plan.K
	bound := map[[2]int]bool{}
	physOf := map[[2]int]int{} // (plane, patch) → physical column
	for virt, bind := range tp.InputBindings {
		ch, kp := bind[0], bind[1]
		if virt < 0 || virt >= len(prog.Cols) {
			flag(-1, InvStructure, "input binding names column %d outside the program", virt)
			continue
		}
		if ch < 0 || ch >= len(sp.Channels) || kp < 0 || kp >= k {
			flag(-1, InvProducer, "input column %d bound to (channel %d, patch %d) outside strip residency (%d channels, K=%d)",
				virt, ch, kp, len(sp.Channels), k)
			continue
		}
		if bound[bind] {
			flag(-1, InvProducer, "(channel %d, patch %d) consumed through more than one column", ch, kp)
		}
		bound[bind] = true
		col := prog.Cols[virt]
		if col.Width != plan.ActBits || col.Unsigned != plan.ActUnsigned {
			flag(-1, InvFormat, "input (channel %d, patch %d) stored as %d-bit unsigned=%v, activation band is %d-bit unsigned=%v",
				ch, kp, col.Width, col.Unsigned, plan.ActBits, plan.ActUnsigned)
		}
		if plan.ChansPerPlane > 0 {
			if want := (ch % plan.ChansPerPlane) * plan.ActBits; col.Base != want {
				flag(-1, InvProducer, "input (channel %d, patch %d) at domain base %d, residency law requires %d",
					ch, kp, col.Base, want)
			}
			pk := [2]int{ch / plan.ChansPerPlane, kp}
			if prev, ok := physOf[pk]; ok && prev != tp.Phys[virt] {
				flag(-1, InvProducer, "(plane %d, patch %d) split across physical columns %d and %d",
					pk[0], pk[1], prev, tp.Phys[virt])
			}
			physOf[pk] = tp.Phys[virt]
		}
	}

	// Live-set equality against the weights: (channel, patch) is live
	// for this tile iff some output row in [rowLo, rowLo+tsize) has a
	// nonzero weight there. A binding outside the live set is a
	// rerouted producer; a live position without a binding is a dropped
	// one.
	w := lay.W
	for j, global := range sp.Channels {
		if global < 0 || global >= w.Cin {
			continue // already flagged by the residency audit
		}
		for kp := 0; kp < k; kp++ {
			kh, kw := kp/w.Fw, kp%w.Fw
			live := false
			for o := rowLo; o < rowLo+tsize && o < w.Cout; o++ {
				if w.At(o, global, kh, kw) != 0 {
					live = true
					break
				}
			}
			if live != bound[[2]int{j, kp}] {
				if live {
					flag(-1, InvLiveness, "(channel %d, patch %d) is live for rows [%d,%d) but never consumed",
						j, kp, rowLo, rowLo+tsize)
				} else {
					flag(-1, InvLiveness, "(channel %d, patch %d) is consumed but dead for rows [%d,%d)",
						j, kp, rowLo, rowLo+tsize)
				}
			}
		}
	}
	return diags
}
