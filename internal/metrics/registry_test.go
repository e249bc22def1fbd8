package metrics

import (
	"bytes"
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// sample is one parsed exposition line.
type sample struct {
	name   string            // as written: family, or family_bucket/_sum/_count
	labels map[string]string // unescaped
	value  float64
}

// exposition is a parsed scrape: the announced families and every sample
// filed under the family it belongs to.
type exposition struct {
	help, kind map[string]string
	samples    map[string][]sample
}

// parse reads text-format exposition the way a scraper does and fails
// the test on anything the format does not allow: a sample before its
// family's # HELP and # TYPE pair, a second announcement of a family, a
// repeated series, an escape the format does not define.
func parse(t *testing.T, text string) exposition {
	t.Helper()
	e := exposition{help: map[string]string{}, kind: map[string]string{}, samples: map[string][]sample{}}
	seen := map[string]bool{}
	current := ""
	for _, line := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			name, help, _ := strings.Cut(rest, " ")
			if _, dup := e.help[name]; dup {
				t.Fatalf("family %s announced twice", name)
			}
			e.help[name], current = help, name
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, kind, _ := strings.Cut(rest, " ")
			if name != current || e.kind[name] != "" {
				t.Fatalf("# TYPE %s does not follow its own # HELP (after %q)", name, current)
			}
			e.kind[name] = kind
			continue
		}
		series, value, ok := cutLast(line, " ")
		if !ok {
			t.Fatalf("unparsable line %q", line)
		}
		if seen[series] {
			t.Fatalf("series %s appears twice", series)
		}
		seen[series] = true
		v, err := strconv.ParseFloat(value, 64)
		if err != nil {
			t.Fatalf("line %q: %v", line, err)
		}
		name, labels := series, map[string]string{}
		if i := strings.IndexByte(series, '{'); i >= 0 {
			name, labels = series[:i], parseLabels(t, series[i+1:len(series)-1])
		}
		family := name
		if e.kind[current] == "histogram" {
			for _, suffix := range []string{"_bucket", "_sum", "_count"} {
				family = strings.TrimSuffix(family, suffix)
			}
		}
		if family != current || e.kind[current] == "" {
			t.Fatalf("sample %q is outside its family's block (in %q)", line, current)
		}
		e.samples[family] = append(e.samples[family], sample{name, labels, v})
	}
	return e
}

func cutLast(s, sep string) (before, after string, found bool) {
	i := strings.LastIndex(s, sep)
	if i < 0 {
		return s, "", false
	}
	return s[:i], s[i+len(sep):], true
}

// parseLabels reads `a="x",b="y"` with the three escapes the text format
// defines and no others.
func parseLabels(t *testing.T, s string) map[string]string {
	t.Helper()
	out := map[string]string{}
	for s != "" {
		name, rest, ok := strings.Cut(s, `="`)
		if !ok {
			t.Fatalf("label without a quoted value in %q", s)
		}
		var v strings.Builder
		i := 0
		for ; i < len(rest) && rest[i] != '"'; i++ {
			if rest[i] != '\\' {
				v.WriteByte(rest[i])
				continue
			}
			i++
			switch rest[i] {
			case '\\', '"':
				v.WriteByte(rest[i])
			case 'n':
				v.WriteByte('\n')
			default:
				t.Fatalf("escape \\%c in %q is not in the text format", rest[i], s)
			}
		}
		out[name] = v.String()
		s = strings.TrimPrefix(rest[i+1:], ",")
	}
	return out
}

func render(t *testing.T, r *Registry) string {
	t.Helper()
	var buf bytes.Buffer
	if err := r.Write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// The exposition is cumulative: bucket counts never decrease in le order,
// an observation past the largest bound lands only in +Inf, +Inf equals
// _count, and a labelled series closes its label set on _sum and _count.
func TestHistogramExpositionCumulative(t *testing.T) {
	r := new(Registry)
	plain := r.Declare(KindHistogram, "x_seconds", "Plain.").Histogram([]float64{0.001, 0.01, 0.1})
	staged := r.Declare(KindHistogram, "y_seconds", "Staged.", "stage").Histogram([]float64{0.001, 0.01, 0.1}, "1")
	for _, s := range []float64{0.0005, 0.001, 0.02, 0.02, 7} {
		plain.Observe(s)
		staged.Observe(s)
	}
	want := `# HELP x_seconds Plain.
# TYPE x_seconds histogram
x_seconds_bucket{le="0.001"} 2
x_seconds_bucket{le="0.01"} 2
x_seconds_bucket{le="0.1"} 4
x_seconds_bucket{le="+Inf"} 5
x_seconds_sum 7.0415
x_seconds_count 5
# HELP y_seconds Staged.
# TYPE y_seconds histogram
y_seconds_bucket{stage="1",le="0.001"} 2
y_seconds_bucket{stage="1",le="0.01"} 2
y_seconds_bucket{stage="1",le="0.1"} 4
y_seconds_bucket{stage="1",le="+Inf"} 5
y_seconds_sum{stage="1"} 7.0415
y_seconds_count{stage="1"} 5
`
	if got := render(t, r); got != want {
		t.Errorf("exposition:\n%s\nwant:\n%s", got, want)
	}
}

// hostile are label values a model name given on a command line can
// carry: %q would print them with Go escapes (é, \x00, \t) that the
// text format does not define.
var hostile = []string{`plain`, `back\slash`, `quo"te`, "new\nline", "é", "nul\x00tab\t", `\n`, `a="b",c`}

// contractRegistry declares one family of every shape the two tiers use.
func contractRegistry() *Registry {
	r := new(Registry)
	r.Declare(KindCounter, "c_total", "A counter.").Counter().Add(3)
	r.Declare(KindCounter, "f_total", `A float counter, help with a \ and a
newline.`).FloatCounter().Add(1.5)
	vec := r.Declare(KindCounter, "v_total", "A counter by model.", "model", "result")
	for _, v := range hostile {
		vec.Counter(v, "ok").Inc()
	}
	sparse := r.Declare(KindCounter, "s_total", "Children appear once observed.", "node")
	sparse.Sparse = true
	sparse.Counter("quiet")
	sparse.Counter("busy").Inc()
	h := r.Declare(KindHistogram, "h_seconds", "A histogram by phase.", "phase")
	for i, phase := range []string{"wait", "exec"} {
		child := h.Histogram([]float64{0.001, 0.01, 0.1}, phase)
		for _, s := range []float64{0.0005, 0.02, 0.02, 7}[i:] {
			child.Observe(s)
		}
	}
	r.Declare(KindHistogram, "e_seconds", "A histogram nothing was observed in.").Histogram([]float64{1})
	g := r.Declare(KindGauge, "g", "A collected gauge.", "model")
	r.Declare(KindGauge, "none", "A family with no series this scrape.")
	r.Collect(func(s *Scrape) {
		for i, v := range hostile {
			s.Float(g, float64(i)/4, v)
		}
	})
	RegisterRuntime(r)
	return r
}

// What a scraper is entitled to, checked on parsed output: every sample
// sits in the block of a family announced by exactly one # HELP + # TYPE
// pair, no series repeats (parse enforces both), label values round-trip
// through the text format's escaping, every histogram series is
// cumulative with +Inf equal to its _count, and every declared family is
// announced even when it has no series.
func TestExpositionContract(t *testing.T) {
	r := contractRegistry()
	text := render(t, r)
	e := parse(t, text)

	for _, f := range r.Families() {
		if e.kind[f.Name] != string(f.Kind) || e.help[f.Name] == "" {
			t.Errorf("family %s: announced as %q with help %q, declared %s", f.Name, e.kind[f.Name], e.help[f.Name], f.Kind)
		}
	}
	if len(e.kind) != len(r.Families()) {
		t.Errorf("%d families announced, %d declared", len(e.kind), len(r.Families()))
	}
	if want := `A float counter, help with a \\ and a\nnewline.`; e.help["f_total"] != want {
		t.Errorf("help escaping: %q, want %q", e.help["f_total"], want)
	}

	for _, family := range []string{"v_total", "g"} {
		var got []string
		for _, s := range e.samples[family] {
			got = append(got, s.labels["model"])
		}
		if fmt.Sprint(got) != fmt.Sprint(hostile) {
			t.Errorf("%s: label values %q came back from %q", family, got, hostile)
		}
	}
	if got := e.samples["s_total"]; len(got) != 1 || got[0].labels["node"] != "busy" {
		t.Errorf("sparse family rendered %v, want only the observed child", got)
	}
	for _, rs := range runtimeSeries {
		if got := e.samples[rs.name]; len(got) != 1 || got[0].value < 0 || (rs.name == "rtmap_go_goroutines" && got[0].value < 1) {
			t.Errorf("runtime family %s rendered %v", rs.name, got)
		}
	}

	type series struct {
		last, inf, count float64
		buckets          int
		sum              bool
	}
	hists := map[string]*series{}
	at := func(family string, s sample) *series {
		delete(s.labels, "le")
		key := fmt.Sprint(family, s.labels)
		if hists[key] == nil {
			hists[key] = &series{count: -1}
		}
		return hists[key]
	}
	for family, kind := range e.kind {
		if kind != "histogram" {
			continue
		}
		for _, s := range e.samples[family] {
			le, isBucket := s.labels["le"]
			h := at(family, s)
			switch {
			case isBucket && strings.HasSuffix(s.name, "_bucket"):
				if s.value < h.last {
					t.Errorf("%s le=%s: bucket %g below its predecessor %g", family, le, s.value, h.last)
				}
				if h.last, h.buckets = s.value, h.buckets+1; le == "+Inf" {
					h.inf = s.value
				} else if _, err := strconv.ParseFloat(le, 64); err != nil {
					t.Errorf("%s: le=%q is not a number", family, le)
				}
			case strings.HasSuffix(s.name, "_sum"):
				h.sum = true
			case strings.HasSuffix(s.name, "_count"):
				h.count = s.value
			default:
				t.Errorf("histogram %s has a stray sample %s", family, s.name)
			}
		}
	}
	if len(hists) != 3 {
		t.Errorf("%d histogram series parsed, want 3", len(hists))
	}
	for key, h := range hists {
		if h.inf != h.count || !h.sum || h.buckets < 2 {
			t.Errorf("%s: +Inf %g, _count %g, _sum present %v, %d buckets", key, h.inf, h.count, h.sum, h.buckets)
		}
	}
}

// The observe path allocates nothing: alloc_kb_per_infer is the tightest
// bound in BENCHMARK.json and every request observes a dozen times.
func TestObserveAllocatesNothing(t *testing.T) {
	r := new(Registry)
	c := r.Declare(KindCounter, "c_total", "c").Counter()
	f := r.Declare(KindCounter, "f_total", "f").FloatCounter()
	child := r.Declare(KindCounter, "v_total", "v", "class", "outcome").Counter("bulk", "shed")
	h := r.Declare(KindHistogram, "h_seconds", "h", "phase").Histogram([]float64{0.001, 0.01, 0.1}, "exec")
	for name, observe := range map[string]func(){
		"counter add":        func() { c.Add(2) },
		"float counter add":  func() { f.Add(0.5) },
		"labelled child add": func() { child.Inc() },
		"histogram observe":  func() { h.Observe(0.02) },
	} {
		if n := testing.AllocsPerRun(100, observe); n != 0 {
			t.Errorf("%s allocates %g times per call", name, n)
		}
	}
}

// Observations and scrapes share no lock but each histogram's own; under
// -race, writers and scrapers run together, every scrape must parse with
// its cross-checks intact, and nothing observed is lost.
func TestConcurrentObserveAndWrite(t *testing.T) {
	r := new(Registry)
	c := r.Declare(KindCounter, "c_total", "c").Counter()
	f := r.Declare(KindCounter, "f_total", "f").FloatCounter()
	h := r.Declare(KindHistogram, "h_seconds", "h").Histogram([]float64{0.001, 0.01, 0.1})
	const writers, each = 4, 2000
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				c.Inc()
				f.Add(0.25)
				h.Observe(float64(i%4) / 100)
			}
		}()
	}
	texts := make(chan string, 8) // one slot per scrape, so the scraper never blocks
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(texts)
		for i := 0; i < cap(texts); i++ {
			var buf bytes.Buffer
			if err := r.Write(&buf); err != nil {
				t.Error(err)
			}
			texts <- buf.String()
		}
	}()
	for text := range texts {
		parse(t, text)
	}
	wg.Wait()
	e := parse(t, render(t, r))
	if got := e.samples["c_total"][0].value; got != writers*each {
		t.Errorf("counter %g after %d adds", got, writers*each)
	}
	if got := e.samples["f_total"][0].value; math.Abs(got-writers*each*0.25) > 1e-9 {
		t.Errorf("float counter %g, want %g", got, writers*each*0.25)
	}
	if got := c.Load(); got != writers*each {
		t.Errorf("Load %d", got)
	}
}

// Declaring a family twice and a label count that does not match the
// declaration are programming errors: they panic, with the prefix the
// lint convention gives every internal invariant.
func TestMisdeclarationPanics(t *testing.T) {
	for name, misuse := range map[string]func(r *Registry){
		"family twice":      func(r *Registry) { r.Declare(KindCounter, "x_total", "x"); r.Declare(KindGauge, "x_total", "x") },
		"child label count": func(r *Registry) { r.Declare(KindCounter, "x_total", "x", "a", "b").Counter("1") },
		"collected label count": func(r *Registry) {
			g := r.Declare(KindGauge, "x", "x", "a")
			r.Collect(func(s *Scrape) { s.Int(g, 1) })
			_ = r.Write(&bytes.Buffer{})
		},
	} {
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.HasPrefix(msg, "metrics: ") {
					t.Errorf("%s: recovered %q, want a panic prefixed \"metrics: \"", name, msg)
				}
			}()
			misuse(new(Registry))
		}()
	}
}
