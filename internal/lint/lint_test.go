package lint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// lintSrc writes src as a single-file package in a temp dir and lints it.
func lintSrc(t *testing.T, src string) []Finding {
	t.Helper()
	return lintFile(t, "f.go", src)
}

// lintFile is lintSrc with the file's name chosen.
func lintFile(t *testing.T, name, src string) []Finding {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	findings, err := Run([]string{dir})
	if err != nil {
		t.Fatal(err)
	}
	return findings
}

func wantRules(t *testing.T, findings []Finding, rules ...string) {
	t.Helper()
	if len(findings) != len(rules) {
		t.Fatalf("got %d findings %v, want rules %v", len(findings), findings, rules)
	}
	for i, r := range rules {
		if findings[i].Rule != r {
			t.Errorf("finding %d = %v, want rule %s", i, findings[i], r)
		}
	}
}

const enumDecl = `
type Opcode uint8
const (
	OpA Opcode = iota
	OpB
	OpC
)
`

func TestExhaustiveSwitch(t *testing.T) {
	missing := lintSrc(t, "package p\n"+enumDecl+`
func f(o Opcode) int {
	switch o {
	case OpA:
		return 1
	case OpB:
		return 2
	}
	return 0
}
`)
	wantRules(t, missing, "exhaustive")
	if !strings.Contains(missing[0].Msg, "OpC") {
		t.Errorf("message should name the missing member: %v", missing[0])
	}

	covered := lintSrc(t, "package p\n"+enumDecl+`
func f(o Opcode) int {
	switch o {
	case OpA, OpB:
		return 1
	case OpC:
		return 2
	}
	return 0
}
`)
	wantRules(t, covered)

	defaulted := lintSrc(t, "package p\n"+enumDecl+`
func f(o Opcode) int {
	switch o {
	case OpA:
		return 1
	default:
		return 0
	}
}
`)
	wantRules(t, defaulted)

	// A switch over an unenforced type is never flagged.
	other := lintSrc(t, `package p
type Kind uint8
const (
	KindA Kind = iota
	KindB
)
func f(k Kind) int {
	switch k {
	case KindA:
		return 1
	}
	return 0
}
`)
	wantRules(t, other)
}

func TestExhaustiveQualifiedLabels(t *testing.T) {
	// The switch lives in another package and references members through
	// a selector; the enum is identified by case-label membership.
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "enum.go"),
		[]byte("package p\n"+enumDecl), 0o644); err != nil {
		t.Fatal(err)
	}
	sub := filepath.Join(dir, "q")
	if err := os.Mkdir(sub, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(sub, "use.go"), []byte(`package q
import "x/p"
func f(o p.Opcode) int {
	switch o {
	case p.OpA, p.OpB:
		return 1
	}
	return 0
}
`), 0o644); err != nil {
		t.Fatal(err)
	}
	findings, err := Run([]string{dir + "/..."})
	if err != nil {
		t.Fatal(err)
	}
	wantRules(t, findings, "exhaustive")
	if !strings.Contains(findings[0].Msg, "OpC") {
		t.Errorf("message should name the missing member: %v", findings[0])
	}
}

func TestNoAlloc(t *testing.T) {
	flagged := lintSrc(t, `package p
//rtmap:noalloc
func hot(xs []int) []int {
	ys := make([]int, len(xs))
	ys = append(ys, 1)
	m := map[int]int{}
	_ = m
	go func() {}()
	return ys
}
`)
	// make, append, composite literal, go statement (its own rule), func
	// literal.
	wantRules(t, flagged, "noalloc", "noalloc", "noalloc", "noalloc-go", "noalloc")

	suppressed := lintSrc(t, `package p
//rtmap:noalloc
func hot(xs []int) []int {
	xs = append(xs, 1) //rtmap:alloc-ok — reuses capacity
	return xs
}
`)
	wantRules(t, suppressed)

	panicOK := lintSrc(t, `package p
import "fmt"
//rtmap:noalloc
func hot(n int) {
	if n < 0 {
		panic(fmt.Sprintf("p: bad n %d", n))
	}
}
`)
	wantRules(t, panicOK)

	// Without the directive nothing is enforced; prose mentioning the
	// annotation is not a directive.
	unmarked := lintSrc(t, `package p
// cold allocates; see //rtmap:noalloc elsewhere.
func cold() []int { return make([]int, 8) }
`)
	wantRules(t, unmarked)
}

// The goroutine-spawn rule has no suppression marker: //rtmap:alloc-ok
// excuses the closure allocation but never the go statement itself.
func TestNoAllocGoNotSuppressible(t *testing.T) {
	findings := lintSrc(t, `package p
func work() {}
//rtmap:noalloc
func hot() {
	go work() //rtmap:alloc-ok — does not apply to goroutine spawns
}
`)
	wantRules(t, findings, "noalloc-go")
}

func TestClockDiscipline(t *testing.T) {
	flagged := lintSrc(t, `package dispatch
import "time"
func f() time.Time {
	time.Sleep(time.Millisecond)
	return time.Now()
}
`)
	wantRules(t, flagged, "wallclock", "wallclock")
	if !strings.Contains(flagged[0].Msg, "time.Sleep") || !strings.Contains(flagged[1].Msg, "time.Now") {
		t.Errorf("messages should name the call: %v", flagged)
	}

	suppressed := lintSrc(t, `package dispatch
import "time"
func f() time.Time { return time.Now() } //rtmap:wallclock-ok
`)
	wantRules(t, suppressed)

	// Clock arithmetic and constants are fine; only wall-clock reads and
	// timers are gated. Other packages are out of scope.
	clean := lintSrc(t, `package dispatch
import "time"
func f(t time.Time, d time.Duration) time.Time { return t.Add(d * time.Millisecond) }
`)
	wantRules(t, clean)
	elsewhere := lintSrc(t, `package model
import "time"
func f() time.Time { return time.Now() }
`)
	wantRules(t, elsewhere)

	// In serve and cluster the rule holds in every file but the listed
	// ones that still read the wall clock.
	const now = "package cluster\nimport \"time\"\nfunc f() time.Time { return time.Now() }\n"
	breaker := lintFile(t, "breaker.go", now)
	wantRules(t, breaker, "wallclock")
	if !strings.Contains(breaker[0].Msg, "package cluster") {
		t.Errorf("message should name the package: %v", breaker[0])
	}
	wantRules(t, lintFile(t, "router.go", now))
	wantRules(t, lintFile(t, "router.go", strings.Replace(now, "cluster", "serve", 1)), "wallclock")
}

func TestLockedSends(t *testing.T) {
	flagged := lintSrc(t, `package serve
import "sync"
type s struct {
	mu sync.Mutex
	ch chan int
}
func (x *s) f() {
	x.mu.Lock()
	x.ch <- 1
	x.mu.Unlock()
}
`)
	wantRules(t, flagged, "locked-send")
	if !strings.Contains(flagged[0].Msg, "x.mu") {
		t.Errorf("message should name the held mutex: %v", flagged[0])
	}

	// Unlocking before the send, read locks, goroutine bodies, and
	// deliberate suppressions are all clean.
	clean := lintSrc(t, `package serve
import "sync"
type s struct {
	mu      sync.Mutex
	closeMu sync.RWMutex
	ch      chan int
}
func (x *s) unlockFirst() {
	x.mu.Lock()
	n := 1
	x.mu.Unlock()
	x.ch <- n
}
func (x *s) readLocked() {
	x.closeMu.RLock()
	defer x.closeMu.RUnlock()
	x.ch <- 1
}
func (x *s) ownGoroutine() {
	x.mu.Lock()
	go func() { x.ch <- 1 }()
	x.mu.Unlock()
}
func (x *s) deliberate() {
	x.mu.Lock()
	x.ch <- 1 //rtmap:locked-send-ok — buffered, capacity proven elsewhere
	x.mu.Unlock()
}
`)
	wantRules(t, clean)

	// Submit calls send internally; branch bodies inherit the held set,
	// select sends are sends.
	nested := lintSrc(t, `package serve
import "sync"
type fleet struct{}
func (*fleet) Submit(int) {}
type s struct {
	mu sync.Mutex
	fl *fleet
	ch chan int
}
func (x *s) f(cond bool) {
	x.mu.Lock()
	if cond {
		x.fl.Submit(1)
	}
	select {
	case x.ch <- 2:
	default:
	}
	x.mu.Unlock()
}
`)
	wantRules(t, nested, "locked-send", "locked-send")

	// A deferred Unlock keeps the lock held for the whole body.
	deferred := lintSrc(t, `package serve
import "sync"
type s struct {
	mu sync.Mutex
	ch chan int
}
func (x *s) f() {
	x.mu.Lock()
	defer x.mu.Unlock()
	x.ch <- 1
}
`)
	wantRules(t, deferred, "locked-send")
}

func TestConventions(t *testing.T) {
	badPanic := lintSrc(t, `package p
func f() { panic("wrong prefix") }
`)
	wantRules(t, badPanic, "panic-prefix")

	goodPanic := lintSrc(t, `package p
import "fmt"
func f() { panic("p: broken invariant") }
func g(n int) { panic(fmt.Sprintf("p: bad n %d", n)) }
func h(err error) { panic(err) }
`)
	wantRules(t, goodPanic)

	mainExempt := lintSrc(t, `package main
func f() { panic("anything goes") }
`)
	wantRules(t, mainExempt)

	badWrap := lintSrc(t, `package p
import "fmt"
func f(err error) error { return fmt.Errorf("doing x: %v", err) }
`)
	wantRules(t, badWrap, "errorf-wrap")

	goodWrap := lintSrc(t, `package p
import "fmt"
func f(err error) error { return fmt.Errorf("doing x: %w", err) }
func g(name string) error { return fmt.Errorf("no model %q", name) }
`)
	wantRules(t, goodWrap)
}

func TestTestFilesSkipped(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "f_test.go"), []byte(`package p
func f() { panic("no prefix, but tests are exempt") }
`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "f.go"), []byte("package p\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	findings, err := Run([]string{dir})
	if err != nil {
		t.Fatal(err)
	}
	wantRules(t, findings)
}

// TestRepoIsClean is the CI gate in test form: the tree must lint clean.
func TestRepoIsClean(t *testing.T) {
	findings, err := Run([]string{"../../..."})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Errorf("%s", f)
	}
}
