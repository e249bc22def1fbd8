package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"rtmap/internal/model"
	"rtmap/internal/serve"
	"rtmap/internal/workload"
)

// servedModel is the architecture the serving workloads request; its
// four seed variants are four compiled artifacts the ring spreads over
// both nodes.
const servedModel = "tinycnn"

var servedVariants = []uint64{1, 2, 3, 4}

// payloadsPerVariant is the size of the seeded body pool per variant.
const payloadsPerVariant = 16

// request is one pre-marshalled /v1/infer body and the reference logits
// of each of its inputs.
type request struct {
	variant uint64
	body    []byte
	want    []reference
}

// buildRequests makes the seeded pool: payloadsPerVariant bodies for
// each variant, inputsPerReq distinct inputs in each, bit_exact on. The
// reference logits come from networks built here, apart from whatever
// the nodes compile.
func buildRequests(seed uint64, inputsPerReq int) (reqs []request, inputsDur, oracleDur time.Duration, err error) {
	for _, v := range servedVariants {
		t0 := time.Now()
		net := model.TinyCNN(model.Config{ActBits: 4, Sparsity: 0.8, Seed: v})
		inputs := workload.Inputs(net.InputShape, payloadsPerVariant*inputsPerReq, seed+v<<32)
		t1 := time.Now()
		refs, err := references(net, inputs)
		if err != nil {
			return nil, 0, 0, err
		}
		inputsDur += t1.Sub(t0)
		oracleDur += time.Since(t1)
		for p := range payloadsPerVariant {
			lo, hi := p*inputsPerReq, (p+1)*inputsPerReq
			wire := serve.InferRequest{Model: servedModel, Seed: v, BitExact: true}
			for _, in := range inputs[lo:hi] {
				wire.Inputs = append(wire.Inputs, in.Data)
			}
			body, err := json.Marshal(&wire)
			if err != nil {
				return nil, 0, 0, fmt.Errorf("marshalling a request body: %w", err)
			}
			reqs = append(reqs, request{variant: v, body: body, want: refs[lo:hi]})
		}
	}
	return reqs, inputsDur, oracleDur, nil
}

// cannedResponse is the correct /v1/infer answer to a pooled request,
// for stub handlers that stand in for the serving path.
func cannedResponse(rq request) ([]byte, error) {
	canned := serve.InferResponse{Model: servedModel}
	for _, ref := range rq.want {
		canned.Results = append(canned.Results, serve.InferResult{Logits: ref.logits})
	}
	body, err := json.Marshal(&canned)
	if err != nil {
		return nil, fmt.Errorf("marshalling a stub response: %w", err)
	}
	return body, nil
}

// loadgen drives /v1/infer from `clients` goroutines, each on its own
// keep-alive connection, fully decoding and checking every response.
type loadgen struct {
	client *http.Client
	reqs   []request
	// url names where a request goes: the router for the workloads, the
	// variant's owner node for the legs that bypass it.
	url  func(*request) string
	rngs [clients]*rand.Rand // request order, one stream per client

	// rec and tracePrefix, when set, put an X-Rtmap-Trace ID on every
	// request and record a client span for it.
	rec         *recorder
	tracePrefix string
	seq         atomic.Int64
}

func newLoadgen(tr http.RoundTripper, reqs []request, seed uint64, url func(*request) string) *loadgen {
	g := &loadgen{client: &http.Client{Transport: tr}, reqs: reqs, url: url}
	for c := range g.rngs {
		g.rngs[c] = rand.New(rand.NewPCG(seed, uint64(c)+1))
	}
	return g
}

// traced returns a generator that sends the same traffic with a trace ID
// on every request.
func (g *loadgen) traced(rec *recorder, prefix string) *loadgen {
	return &loadgen{client: g.client, reqs: g.reqs, url: g.url, rngs: g.rngs, rec: rec, tracePrefix: prefix}
}

// do sends one request and checks the answer. due is the scheduled send
// time of an open loop (zero in a closed loop): latency runs from it, so
// a stall is charged to every request it delays.
func (g *loadgen) do(rq *request, due time.Time) opSample {
	var op opSample
	req, err := http.NewRequest(http.MethodPost, g.url(rq)+"/v1/infer", bytes.NewReader(rq.body))
	if err != nil {
		op.failed = true
		return op
	}
	req.Header.Set("Content-Type", "application/json")
	if g.rec != nil {
		op.traceID = fmt.Sprintf("%s-%d", g.tracePrefix, g.seq.Add(1))
		req.Header.Set(serve.TraceHeader, op.traceID)
	}
	start := time.Now()
	if due.IsZero() {
		due = start
	}
	op.lateness = start.Sub(due)
	op.failed = !g.exchange(req, rq, &op)
	end := time.Now()
	op.latency = end.Sub(due)
	op.spanID = g.rec.add(0, "client.request", op.traceID, start, end)
	return op
}

// exchange performs the round trip and reports whether the response was
// a 200 whose every logit equals the reference.
func (g *loadgen) exchange(req *http.Request, rq *request, op *opSample) bool {
	resp, err := g.client.Do(req)
	if err != nil {
		return false
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		return false
	}
	var out serve.InferResponse
	if err := json.Unmarshal(body, &out); err != nil || len(out.Results) != len(rq.want) {
		return false
	}
	op.node = resp.Header.Get("X-Rtmap-Node")
	for i, res := range out.Results {
		if !rq.want[i].matchLogits(res.Logits) {
			return false
		}
		op.batchSize += res.Batch.Size
		op.queueNS += res.Batch.QueueWallNS
	}
	op.batchSize /= len(out.Results)
	op.queueNS /= int64(len(out.Results))
	return true
}

// run drives the clients until the deadline and returns every operation.
// rate 0 is a closed loop: a client sends its next request when the
// previous one completes. A positive rate (requests/s over all clients)
// is an open loop on the same connections: each client's sends are due
// on a fixed schedule; one that falls behind sends at once and the
// delay shows in the latency of every request it made late.
func (g *loadgen) run(deadline time.Time, rate float64) []opSample {
	start := time.Now()
	var period time.Duration
	if rate > 0 {
		period = time.Duration(float64(time.Second) * clients / rate)
	}
	var perClient [clients][]opSample
	var wg sync.WaitGroup
	for c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := g.rngs[c]
			for j := 0; ; j++ {
				var due time.Time
				if rate > 0 {
					due = start.Add(time.Duration(j)*period + time.Duration(c)*period/clients)
					if !due.Before(deadline) {
						return
					}
					time.Sleep(time.Until(due))
				} else if j > 0 && !time.Now().Before(deadline) {
					return
				}
				rq := &g.reqs[rng.IntN(len(g.reqs))]
				perClient[c] = append(perClient[c], g.do(rq, due))
			}
		}()
	}
	wg.Wait()
	var all []opSample
	for _, ops := range perClient {
		all = append(all, ops...)
	}
	return all
}

// runner adapts run to measure's slice signature.
func (g *loadgen) runner(rate float64) func(time.Time) []opSample {
	return func(deadline time.Time) []opSample { return g.run(deadline, rate) }
}
