// Package lint implements rtmap's project-specific static analyzers,
// run by cmd/rtmap-vet as a CI gate. It is purely syntactic (go/ast on
// stdlib only — the module stays dependency-free) and enforces three
// invariants the compiler and runtime rely on:
//
//   - exhaustive: switches dispatching on the interpreter enums
//     (ap.Opcode, plan op kinds) must cover every member or declare a
//     default case, so adding an opcode cannot silently no-op;
//   - noalloc: functions annotated //rtmap:noalloc (the batch hot
//     path) must not contain allocating constructs; provably amortized
//     lines opt out with //rtmap:alloc-ok, and panic arguments are
//     exempt as cold paths;
//   - noalloc-go: //rtmap:noalloc bodies must not spawn goroutines —
//     no suppression marker exists for this one;
//   - conventions: panic messages carry their "<pkg>: " subsystem
//     prefix, and fmt.Errorf wraps error values with %w, matching the
//     panic-vs-wrapped-error boundary documented in ARCHITECTURE.md;
//   - wallclock: packages dispatch, serve and cluster must not read the
//     process wall clock directly (time.Now, time.Sleep, timers) —
//     scheduling runs on an injectable Clock so tests are deterministic;
//     the RealClock adapter itself is marked //rtmap:wallclock-ok, and
//     the serve and cluster files that still call the clock are listed
//     by name in wallclockExempt, a list that only shrinks;
//   - locked-send: package serve must not send on a channel (or call
//     Submit, which sends internally) while holding an exclusive
//     mutex — the receiver may need the same lock to drain. Read locks
//     are exempt by design; deliberate cases carry
//     //rtmap:locked-send-ok.
//
// Test files are not linted: the rules protect production invariants
// that tests legitimately violate.
package lint
