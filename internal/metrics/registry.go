package metrics

import (
	"fmt"
	"io"
	"net/http"
	"strings"
)

// Kind is a family's exposition type, spelled as its # TYPE line spells it.
type Kind string

const (
	KindCounter   Kind = "counter"
	KindGauge     Kind = "gauge"
	KindHistogram Kind = "histogram"
)

// Family is one declared metric family: what its # HELP and # TYPE lines
// say and the label names every series of it carries. Its samples come
// from instruments — the children Counter, FloatCounter and Histogram
// resolve once, at construction — or from a collector that reports, at
// scrape time, state that lives elsewhere and series derived from others.
type Family struct {
	Name, Help string
	Kind       Kind
	Labels     []string
	// Sparse omits the children that have observed nothing, for families
	// whose label space is mostly empty (attempts per node and result,
	// execution per stage).
	Sparse bool

	slot     int // index in Registry.fams and in a Scrape's buffers
	children []child
}

type child struct {
	labels string // rendered and escaped: `a="x",b="y"`
	inst   instrument
}

// Registry is an ordered set of families and the one renderer of the
// Prometheus text exposition format; the zero value is empty and ready.
// Everything is declared — families, label children, collectors — while
// the owner is constructed, before the first Write; observing through an
// instrument never touches the registry.
type Registry struct {
	fams       []*Family
	collectors []func(*Scrape)
}

// Declare adds a family. Declaring a name twice is a programming error.
func (r *Registry) Declare(kind Kind, name, help string, labels ...string) *Family {
	for _, f := range r.fams {
		if f.Name == name {
			panic(fmt.Sprintf("metrics: family %s declared twice", name))
		}
	}
	f := &Family{Name: name, Help: help, Kind: kind, Labels: labels, slot: len(r.fams)}
	r.fams = append(r.fams, f)
	return f
}

// Counter resolves the family's counter for one value per label name
// (none for an unlabelled family).
func (f *Family) Counter(values ...string) *Counter {
	c := &Counter{}
	f.children = append(f.children, child{f.labels(values), c})
	return c
}

// FloatCounter resolves a real-valued counter likewise.
func (f *Family) FloatCounter(values ...string) *FloatCounter {
	c := &FloatCounter{}
	f.children = append(f.children, child{f.labels(values), c})
	return c
}

// Histogram resolves a histogram over the given upper bounds (ascending,
// seconds) likewise.
func (f *Family) Histogram(buckets []float64, values ...string) *Histogram {
	h := &Histogram{buckets: buckets, counts: make([]int64, len(buckets)+1)}
	f.children = append(f.children, child{f.labels(values), h})
	return h
}

// labels renders one value per declared label name, escaped as the text
// format defines (backslash, double quote, newline) and no further.
func (f *Family) labels(values []string) string {
	if len(values) != len(f.Labels) {
		panic(fmt.Sprintf("metrics: family %s has labels %v, got values %q", f.Name, f.Labels, values))
	}
	var b strings.Builder
	for i, v := range values {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(f.Labels[i] + `="` + labelEscaper.Replace(v) + `"`)
	}
	return b.String()
}

var (
	labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	helpEscaper  = strings.NewReplacer(`\`, `\\`, "\n", `\n`)
)

// Collect adds a callback that runs once per Write, before anything is
// rendered. One callback may feed several families from one snapshot of
// its source, which keeps them consistent with each other.
func (r *Registry) Collect(fn func(*Scrape)) { r.collectors = append(r.collectors, fn) }

// Scrape receives the collected samples of one Write.
type Scrape struct{ bufs [][]byte }

// Int reports one integer sample (rendered %d).
func (s *Scrape) Int(f *Family, v int64, labelValues ...string) {
	s.bufs[f.slot] = appendInt(appendSeries(s.bufs[f.slot], f.Name, "", f.labels(labelValues), ""), v)
}

// Bool reports one 0/1 sample.
func (s *Scrape) Bool(f *Family, v bool, labelValues ...string) {
	var n int64
	if v {
		n = 1
	}
	s.Int(f, n, labelValues...)
}

// Float reports one real-valued sample (rendered %g).
func (s *Scrape) Float(f *Family, v float64, labelValues ...string) {
	s.bufs[f.slot] = appendFloat(appendSeries(s.bufs[f.slot], f.Name, "", f.labels(labelValues), ""), v)
}

// Families lists the declared families, in declaration order.
func (r *Registry) Families() []*Family { return r.fams }

// Write renders every family in declaration order: # HELP, # TYPE, the
// instrument children in the order they were resolved, then the collected
// samples in the order they were reported.
func (r *Registry) Write(w io.Writer) error {
	s := Scrape{bufs: make([][]byte, len(r.fams))}
	for _, collect := range r.collectors {
		collect(&s)
	}
	var b []byte
	for i, f := range r.fams {
		b = append(b, "# HELP "+f.Name+" "+helpEscaper.Replace(f.Help)+"\n# TYPE "+f.Name+" "+string(f.Kind)+"\n"...)
		for _, c := range f.children {
			mark := len(b)
			var observed bool
			if b, observed = c.inst.appendSamples(b, f.Name, c.labels); f.Sparse && !observed {
				b = b[:mark]
			}
		}
		b = append(b, s.bufs[i]...)
	}
	_, err := w.Write(b)
	return err
}

// ServeHTTP is the GET /metrics handler both serving tiers mount.
func (r *Registry) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	_ = r.Write(w) // a failed write is a scraper that hung up
}
