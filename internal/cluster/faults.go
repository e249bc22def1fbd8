package cluster

import (
	"fmt"
	"net/http"
	"strings"
	"sync"
	"syscall"
	"time"
)

// FaultKind is one injectable node-level failure mode, as seen from the
// router's side of the wire.
//
//	kill       connections are refused (ECONNREFUSED) — a crashed
//	           process whose port nobody listens on.
//	partition  identical wire behavior to kill, but the node itself
//	           keeps running: the harness uses the distinction to
//	           assert that healing a partition needs no node restart.
//	hang       the connection opens and then nothing ever comes back —
//	           no bytes, no close. The attempt ends only when its
//	           context (the class-derived timeout) expires, which is
//	           exactly the failure mode timeouts exist for.
//	slow       every response is delayed by the configured duration.
//	flap       the node alternates kill/healthy on a fixed period —
//	           the pathological case for naive health checking.
type FaultKind int

const (
	FaultNone FaultKind = iota
	FaultKill
	FaultPartition
	FaultHang
	FaultSlow
	FaultFlap
)

// String returns the -fault spec name of the kind.
func (k FaultKind) String() string {
	switch k {
	case FaultNone:
		return "none"
	case FaultKill:
		return "kill"
	case FaultPartition:
		return "partition"
	case FaultHang:
		return "hang"
	case FaultSlow:
		return "slow"
	case FaultFlap:
		return "flap"
	}
	return fmt.Sprintf("fault(%d)", int(k))
}

// Fault is one armed fault: a kind plus its parameter (Delay for slow,
// Period for flap).
type Fault struct {
	Kind   FaultKind
	Delay  time.Duration // slow: added response latency
	Period time.Duration // flap: half-cycle (up Period, down Period)
}

// ParseFault decodes a -fault value: "kill", "partition", "hang",
// "slow:50ms", "flap" or "flap:500ms".
func ParseFault(spec string) (Fault, error) {
	kind, arg, _ := strings.Cut(spec, ":")
	switch kind {
	case "kill":
		return Fault{Kind: FaultKill}, nil
	case "partition":
		return Fault{Kind: FaultPartition}, nil
	case "hang":
		return Fault{Kind: FaultHang}, nil
	case "slow":
		if arg == "" {
			arg = "50ms"
		}
		d, err := time.ParseDuration(arg)
		if err != nil || d <= 0 {
			return Fault{}, fmt.Errorf("cluster: slow fault wants a positive duration, got %q", arg)
		}
		return Fault{Kind: FaultSlow, Delay: d}, nil
	case "flap":
		if arg == "" {
			arg = "500ms"
		}
		d, err := time.ParseDuration(arg)
		if err != nil || d <= 0 {
			return Fault{}, fmt.Errorf("cluster: flap fault wants a positive period, got %q", arg)
		}
		return Fault{Kind: FaultFlap, Period: d}, nil
	}
	return Fault{}, fmt.Errorf("cluster: unknown fault %q (kill, partition, hang, slow:<dur>, flap[:<period>])", spec)
}

// FaultInjector wraps an http.RoundTripper and misbehaves for selected
// nodes. Both the router's proxy transport and the health prober route
// through the same injector, so an injected fault is indistinguishable
// from the real thing at every layer above the wire.
type FaultInjector struct {
	next http.RoundTripper

	mu     sync.Mutex
	faults map[string]faultState // key: scheme://host
}

type faultState struct {
	f     Fault
	armed time.Time
}

// NewFaultInjector wraps next (nil: defaultTransport).
func NewFaultInjector(next http.RoundTripper) *FaultInjector {
	if next == nil {
		next = defaultTransport()
	}
	return &FaultInjector{next: next, faults: map[string]faultState{}}
}

// Set arms (or, with FaultNone, clears) a fault for a node base URL.
func (fi *FaultInjector) Set(node string, f Fault) {
	key := nodeKey(node)
	fi.mu.Lock()
	if f.Kind == FaultNone {
		delete(fi.faults, key)
	} else {
		fi.faults[key] = faultState{f: f, armed: time.Now()}
	}
	fi.mu.Unlock()
}

// errRefused mimics a dial against a dead port closely enough for
// errors.Is(err, syscall.ECONNREFUSED) to hold through url.Error
// unwrapping, exactly like a real refused connection surfaces from
// http.Client.Do.
type errRefused struct{ node string }

func (e *errRefused) Error() string {
	return fmt.Sprintf("dial tcp %s: connect: connection refused (injected)", e.node)
}
func (e *errRefused) Unwrap() error { return syscall.ECONNREFUSED }

// RoundTrip applies the node's armed fault, if any.
func (fi *FaultInjector) RoundTrip(req *http.Request) (*http.Response, error) {
	key := req.URL.Scheme + "://" + req.URL.Host
	fi.mu.Lock()
	st, ok := fi.faults[key]
	fi.mu.Unlock()
	if !ok {
		return fi.next.RoundTrip(req)
	}
	switch st.f.Kind {
	case FaultKill, FaultPartition:
		return nil, &errRefused{node: req.URL.Host}
	case FaultHang:
		// Hold the "connection" open until the caller's context gives
		// up; return its error so the attempt classifies as a timeout.
		<-req.Context().Done()
		return nil, req.Context().Err()
	case FaultSlow:
		select {
		case <-time.After(st.f.Delay):
		case <-req.Context().Done():
			return nil, req.Context().Err()
		}
		return fi.next.RoundTrip(req)
	case FaultFlap:
		// Alternate healthy/refused half-cycles from the arming instant.
		phase := time.Since(st.armed) / st.f.Period
		if phase%2 == 1 {
			return nil, &errRefused{node: req.URL.Host}
		}
		return fi.next.RoundTrip(req)
	}
	return fi.next.RoundTrip(req)
}

// nodeKey canonicalizes a node base URL to its scheme://host key.
func nodeKey(node string) string {
	node = strings.TrimSuffix(node, "/")
	return node
}
