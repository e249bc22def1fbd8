package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"rtmap/internal/trace"
)

// span is one timed call the harness made into a layer, or one span the
// program recorded itself (route/http/wait/queue/exec) hung under the
// harness span that caused it. Parent is the ID of the causing span, 0
// for a root; Op ties the spans of one operation together (the trace ID
// on the serving path). SelfNS is filled in when the trace is written.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	Op      string `json:"op,omitempty"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	SelfNS  int64  `json:"self_ns"`
}

// recorder keeps spans in memory until the run ends. Safe for the two
// load-generator goroutines to share. A nil recorder records nothing:
// end-to-end runs measure with tracing off.
type recorder struct {
	mu    sync.Mutex
	spans []span
}

// add stores one finished span and returns its ID.
func (r *recorder) add(parent int, name, op string, start, end time.Time) int {
	return r.addNS(parent, name, op, start.UnixNano(), end.UnixNano())
}

func (r *recorder) addNS(parent int, name, op string, startNS, endNS int64) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Op: op, StartNS: startNS, EndNS: endNS})
	return id
}

// timed runs f inside a root span and returns how long it took.
func (r *recorder) timed(name string, f func() error) (time.Duration, error) {
	start := time.Now()
	err := f()
	end := time.Now()
	r.add(0, name, "", start, end)
	return end.Sub(start), err
}

// adopt hangs the program's own spans of one trace under the harness
// span that sent the request: route under the client span, http under
// route (or under the client span when the request bypassed the router),
// retry/hedge under route, and everything else (wait, queue, exec)
// under http.
func (r *recorder) adopt(clientSpan int, op string, program []trace.Span) {
	hang := func(parent int, sp trace.Span) int {
		return r.addNS(parent, sp.Name, op, sp.Start, sp.Start+sp.Dur)
	}
	route := clientSpan
	for _, sp := range program {
		if sp.Name == "route" {
			route = hang(clientSpan, sp)
		}
	}
	node := route
	for _, sp := range program {
		if sp.Name == "http" {
			node = hang(route, sp)
		}
	}
	for _, sp := range program {
		switch sp.Name {
		case "route", "http":
		case "retry", "hedge":
			hang(route, sp)
		default:
			hang(node, sp)
		}
	}
}

// selfTimes fills SelfNS on every span: its duration minus the part of
// that interval its children cover.
func selfTimes(spans []span) {
	children := map[int][]interval{}
	for _, sp := range spans {
		if sp.Parent != 0 {
			children[sp.Parent] = append(children[sp.Parent], interval{sp.StartNS, sp.EndNS})
		}
	}
	for i := range spans {
		sp := &spans[i]
		sp.SelfNS = sp.EndNS - sp.StartNS - covered(children[sp.ID], sp.StartNS, sp.EndNS)
	}
}

// write computes self times and writes the trace as one JSON object per
// line.
func (r *recorder) write(path string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	selfTimes(r.spans)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("creating trace directory: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("creating trace file: %w", err)
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, sp := range r.spans {
		if err := enc.Encode(sp); err != nil {
			return fmt.Errorf("writing trace file: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		return fmt.Errorf("writing trace file: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("closing trace file: %w", err)
	}
	return nil
}
