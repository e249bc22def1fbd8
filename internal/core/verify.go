package core

import (
	"slices"

	"rtmap/internal/codegen"
	"rtmap/internal/verify"
)

// VerifyCompiled statically audits every tile program retained in c
// (Config.KeepPrograms) through the independent plan verifier. It
// returns nil when every plan is proved sound, or a *verify.Error
// carrying one located diagnostic per violated invariant. The programs
// are audited in parallel, on as many goroutines as GOMAXPROCS, largest
// first; each writes its diagnostics into its own slot, and the
// diagnostics are then sorted, so the error does not depend on the
// schedule. Plans are memoized on their tile programs, so a sweep right
// after compilation also pre-builds the plans the simulator would build
// lazily.
func VerifyCompiled(c *Compiled) error {
	type audit struct {
		ref verify.Ref
		tp  *codegen.TileProgram
	}
	var name string
	if c.Net != nil {
		name = c.Net.Name
	}
	var audits []audit
	for _, lp := range c.Layers {
		for s := range lp.StripPlans {
			for t, tp := range lp.StripPlans[s].Programs {
				audits = append(audits, audit{verify.Ref{
					Model: name, Layer: lp.Index, LayerName: lp.Name,
					Strip: s, Tile: t,
				}, tp})
			}
		}
	}
	slices.SortStableFunc(audits, func(a, b audit) int { return size(b.tp) - size(a.tp) })
	found := make([][]verify.Diagnostic, len(audits))
	parallelFor(len(audits), Config{Parallel: true}.workers(), func(i int) {
		found[i] = verify.CheckTileProgram(audits[i].ref, audits[i].tp)
	})
	var diags []verify.Diagnostic
	for _, ds := range found {
		diags = append(diags, ds...)
	}
	if len(diags) > 0 {
		e := &verify.Error{Diags: diags}
		e.Sort()
		return e
	}
	return nil
}

// size is a tile program's instruction count, 0 for a missing program.
func size(tp *codegen.TileProgram) int {
	if tp == nil || tp.Prog == nil {
		return 0
	}
	return len(tp.Prog.Instrs)
}
