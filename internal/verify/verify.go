package verify

import (
	"fmt"
	"sort"
	"strings"

	"rtmap/internal/ap"
	"rtmap/internal/codegen"
)

// Ref locates a tile program inside a compiled artifact so a diagnostic
// can name exactly which plan failed.
type Ref struct {
	Model     string
	Layer     int
	LayerName string
	Strip     int
	Tile      int
}

// Diagnostic is one verifier finding, fully located: which model, layer,
// strip, tile, plan op, and which invariant it violates. It marshals to
// JSON so serve can return it in an HTTP 400 body.
type Diagnostic struct {
	Model     string `json:"model,omitempty"`
	Layer     int    `json:"layer"`
	LayerName string `json:"layer_name,omitempty"`
	Strip     int    `json:"strip"`
	Tile      int    `json:"tile"`
	Op        int    `json:"op"` // plan op index; -1 = plan-level
	Invariant string `json:"invariant"`
	Detail    string `json:"detail"`
}

func (d Diagnostic) String() string {
	var b strings.Builder
	if d.Model != "" {
		fmt.Fprintf(&b, "model %s: ", d.Model)
	}
	fmt.Fprintf(&b, "layer %d", d.Layer)
	if d.LayerName != "" {
		fmt.Fprintf(&b, " (%s)", d.LayerName)
	}
	fmt.Fprintf(&b, " strip %d tile %d op %d: %s: %s", d.Strip, d.Tile, d.Op, d.Invariant, d.Detail)
	return b.String()
}

// Error aggregates every diagnostic of one verification sweep. Callers
// use errors.As to recover the structured findings from a failed
// compile or admit.
type Error struct {
	Diags []Diagnostic
}

// Sort puts the error's diagnostics into the canonical location order.
// Verification sweeps call it before returning, so two runs over the
// same artifact always report violations in the same order no matter
// what map-iteration or goroutine interleaving produced them.
func (e *Error) Sort() { SortDiagnostics(e.Diags) }

// SortDiagnostics orders diagnostics by location — model, layer, strip,
// tile, op — then by invariant and detail, so any diagnostic list has
// exactly one canonical order (the ordering CI annotations and the
// -json output rely on).
func SortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		switch {
		case a.Model != b.Model:
			return a.Model < b.Model
		case a.Layer != b.Layer:
			return a.Layer < b.Layer
		case a.Strip != b.Strip:
			return a.Strip < b.Strip
		case a.Tile != b.Tile:
			return a.Tile < b.Tile
		case a.Op != b.Op:
			return a.Op < b.Op
		case a.Invariant != b.Invariant:
			return a.Invariant < b.Invariant
		}
		return a.Detail < b.Detail
	})
}

func (e *Error) Error() string {
	if len(e.Diags) == 0 {
		return "verify: plan verification failed"
	}
	msg := fmt.Sprintf("verify: %s", e.Diags[0])
	if n := len(e.Diags) - 1; n > 0 {
		msg += fmt.Sprintf(" (and %d more)", n)
	}
	return msg
}

// located places violations under ref.
func located(ref Ref, vs []ap.Violation) []Diagnostic {
	var out []Diagnostic
	for _, v := range vs {
		out = append(out, Diagnostic{
			Model: ref.Model, Layer: ref.Layer, LayerName: ref.LayerName,
			Strip: ref.Strip, Tile: ref.Tile,
			Op: v.Op, Invariant: v.Invariant, Detail: v.Detail,
		})
	}
	return out
}

// CheckTileProgram audits one tile program's execution plan against its
// source AP program (see ap.AuditPlan for the proved invariants) and
// proves, in one more linear pass, that the program cut at its channel
// boundaries (ChanAt) runs as parts (ap.AuditParts): every view Parts
// builds is then sound without an audit of its own. It returns the
// findings located under ref. A program whose plan cannot even be built
// is itself a finding: serving would hit the same error on first
// execution.
func CheckTileProgram(ref Ref, tp *codegen.TileProgram) []Diagnostic {
	if tp == nil || tp.Prog == nil {
		return located(ref, []ap.Violation{{Op: -1, Invariant: ap.InvProgram, Detail: "tile has no program"}})
	}
	plan, err := tp.ExecPlan()
	if err != nil {
		return located(ref, []ap.Violation{{Op: -1, Invariant: ap.InvProgram, Detail: err.Error()}})
	}
	if vs := ap.AuditPlan(tp.Prog, plan); len(vs) > 0 {
		return located(ref, vs)
	}
	if len(tp.ChanAt) == 0 {
		return nil // one part: the plan itself
	}
	bound := make([]int, len(tp.Prog.Cols))
	for c := range bound {
		bound[c] = -1
	}
	for v, b := range tp.InputBindings {
		bound[v] = b[0] // fragment i is resident channel i
	}
	return located(ref, ap.AuditParts(tp.Prog, tp.ChanAt, tp.AccVirt, bound))
}

// CheckPartViews audits each view of tp cut into g parts directly:
// ap.AuditPlan of the view against the program of the instructions it
// runs, the clears and its fragments. CheckTileProgram proves the same
// views sound without building them; this is the cross-check of that
// proof, for tools and tests.
func CheckPartViews(ref Ref, tp *codegen.TileProgram, g int) []Diagnostic {
	parts, err := tp.Parts(g)
	if err != nil {
		return located(ref, []ap.Violation{{Op: -1, Invariant: ap.InvProgram, Detail: err.Error()}})
	}
	var out []Diagnostic
	for _, pt := range parts {
		head := 0
		if len(parts) > 1 {
			head = tp.ChanAt[0]
		}
		p := &ap.Program{Carry: tp.Prog.Carry, Cols: tp.Prog.Cols, Dsts: tp.Prog.Dsts,
			Instrs: append(tp.Prog.Instrs[:head:head], tp.Prog.Instrs[pt.Lo:pt.Hi]...)}
		for _, d := range located(ref, ap.AuditPlan(p, pt.Plan)) {
			d.Detail = fmt.Sprintf("part [%d, %d) of %d: %s", pt.Chan0, pt.Chan1, len(parts), d.Detail)
			out = append(out, d)
		}
	}
	return out
}
