package core

import "rtmap/internal/verify"

// VerifyCompiled statically audits every tile program retained in c
// (Config.KeepPrograms) through the independent plan verifier. It
// returns nil when every plan is proved sound, or a *verify.Error
// carrying one located diagnostic per violated invariant. Plans are
// memoized on their tile programs, so a sweep right after compilation
// also pre-builds the plans the simulator would build lazily.
func VerifyCompiled(c *Compiled) error {
	var diags []verify.Diagnostic
	var name string
	if c.Net != nil {
		name = c.Net.Name
	}
	for _, lp := range c.Layers {
		for s := range lp.StripPlans {
			for t, tp := range lp.StripPlans[s].Programs {
				ref := verify.Ref{
					Model: name, Layer: lp.Index, LayerName: lp.Name,
					Strip: s, Tile: t,
				}
				diags = append(diags, verify.CheckTileProgram(ref, tp)...)
			}
		}
	}
	if len(diags) > 0 {
		e := &verify.Error{Diags: diags}
		e.Sort()
		return e
	}
	return nil
}
