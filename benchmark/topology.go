package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"time"

	"rtmap/internal/cluster"
	"rtmap/internal/serve"
)

// nodeNames are the ring identities of the two nodes. The ring hashes
// node URLs, so binding 127.0.0.1:0 and handing the router the resulting
// ports would re-deal the variants over the nodes on every run; stable
// names with a dialer that maps them to the bound ports keep the
// placement (two variants per node) the same on every run.
var nodeNames = []string{"node-a", "node-b"}

// tracedBuf sizes every tracer's ring in a traced run so that the traced
// window of the longest allowed run drops nothing (asserted after it).
// End-to-end runs keep the rtmap-serve default.
const tracedBuf = 1 << 17

// topology is one router in front of two nodes, built in-process from
// serve.New and cluster.New with every option at the rtmap-serve /
// rtmap-router default: Devices 4, MaxBatch 8, Window 2ms, SLO on,
// WallScale 0, tracing only on request, logs silenced.
type topology struct {
	nodes     map[string]*serve.Server // by node URL ("http://node-a")
	router    *cluster.Router
	routerURL string
	addrs     map[string]string // "node-a:80" -> bound 127.0.0.1:port
	client    *http.Transport   // the harness's own connections, node names resolved
	served    chan error        // one Serve result per server
}

func silent(string, ...any) {}

// dial is net.Dialer.DialContext with the node names resolved.
func (t *topology) dial(ctx context.Context, network, addr string) (net.Conn, error) {
	if bound, ok := t.addrs[addr]; ok {
		addr = bound
	}
	var d net.Dialer
	return d.DialContext(ctx, network, addr)
}

// transport is the default HTTP transport with the topology's dialer.
func (t *topology) transport() *http.Transport {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.DialContext = t.dial
	return tr
}

func bootTopology(traceBuf int) (*topology, error) {
	t := &topology{
		nodes:  map[string]*serve.Server{},
		addrs:  map[string]string{},
		served: make(chan error, len(nodeNames)+1), // every Serve goroutine can report without a reader
	}
	var urls []string
	for _, name := range nodeNames {
		s := serve.New(serve.Options{Addr: "127.0.0.1:0", TraceBuf: traceBuf, Logf: silent})
		addr, err := s.Listen()
		if err != nil {
			t.close()
			return nil, fmt.Errorf("binding %s: %w", name, err)
		}
		url := "http://" + name
		t.nodes[url] = s
		t.addrs[name+":80"] = addr.String()
		urls = append(urls, url)
		go func() { t.served <- s.Serve() }()
	}
	r, err := cluster.New(cluster.Options{
		Addr: "127.0.0.1:0", Nodes: urls, Transport: t.transport(),
		TraceBuf: traceBuf, Logf: silent,
	})
	if err != nil {
		t.close()
		return nil, fmt.Errorf("building the router: %w", err)
	}
	addr, err := r.Listen()
	if err != nil {
		t.close()
		return nil, fmt.Errorf("binding the router: %w", err)
	}
	t.router, t.routerURL, t.client = r, "http://"+addr.String(), t.transport()
	go func() { t.served <- r.Serve() }()
	return t, nil
}

// close drains the router, then the nodes, and waits for every Serve
// goroutine to return.
func (t *topology) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if t.client != nil {
		t.client.CloseIdleConnections()
	}
	var errs []error
	started := 0
	if t.router != nil {
		errs = append(errs, t.router.Shutdown(ctx))
		started++
	}
	for _, s := range t.nodes {
		errs = append(errs, s.Shutdown(ctx))
		started++
	}
	for range started {
		errs = append(errs, <-t.served)
	}
	return errors.Join(errs...)
}

// viaRouter sends every request to the router.
func (t *topology) viaRouter(*request) string { return t.routerURL }

// toOwner sends a request straight to the node the router would pick.
func (t *topology) toOwner(rq *request) string {
	return t.router.Ring().Owners(cluster.RouteKey(servedModel, 0, nil, rq.variant), 1)[0]
}

// handlerTransport serves requests by calling the nodes' handlers
// in-process: no socket, no connection, the same bytes.
type handlerTransport struct{ t *topology }

func (h handlerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	s, ok := h.t.nodes["http://"+req.URL.Host]
	if !ok {
		return nil, fmt.Errorf("no node named %q", req.URL.Host)
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	return rec.Result(), nil
}
