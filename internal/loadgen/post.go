package loadgen

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"syscall"

	"rtmap/internal/serve"
)

// Shot is one /v1/infer request: the server or router base URL, a
// pre-marshalled body (Bodies) and the optional trace and SLO headers
// (empty / zero = header not sent).
type Shot struct {
	URL        string
	Body       []byte
	TraceID    string
	Class      string
	DeadlineMS float64
}

// Outcome is what came back. Err is set, and Status is 0, when no
// complete HTTP response arrived; otherwise Body is the whole response
// body and Kind the "kind" of the error document of a non-200 answer.
type Outcome struct {
	Status int
	Kind   string
	Body   []byte
	Err    error
}

// Post sends one Shot and waits for its Outcome. A request that dies
// because ctx ended — cancelled or past its deadline — was withdrawn by
// the caller, not failed by the server: its Err is context.Canceled, so
// it reads "cancelled" and never "timeout".
func Post(ctx context.Context, client *http.Client, s Shot) Outcome {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.URL+"/v1/infer", bytes.NewReader(s.Body))
	if err != nil {
		return Outcome{Err: err}
	}
	req.Header.Set("Content-Type", "application/json")
	if s.TraceID != "" {
		req.Header.Set(serve.TraceHeader, s.TraceID)
	}
	if s.Class != "" {
		req.Header.Set(serve.ClassHeader, s.Class)
	}
	if s.DeadlineMS > 0 {
		req.Header.Set(serve.DeadlineHeader, strconv.FormatFloat(s.DeadlineMS, 'g', -1, 64))
	}
	resp, err := client.Do(req)
	var body []byte
	if err == nil {
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	if err != nil {
		if ctx.Err() != nil {
			err = fmt.Errorf("%w by the caller: %v", context.Canceled, err)
		}
		return Outcome{Err: err}
	}
	o := Outcome{Status: resp.StatusCode, Body: body}
	if o.Status != http.StatusOK {
		var doc struct {
			Kind string `json:"kind"`
		}
		if json.Unmarshal(body, &doc) == nil {
			o.Kind = doc.Kind
		}
	}
	return o
}

// Category maps the outcome onto the error taxonomy: HTTP answers by
// status, transport failures by cause. connect_refused means nobody
// listens, timeout means something accepted and stalled, http_503 means
// a node answered and declined — the distinctions the chaos gates and
// the router's retry policy reason about.
func (o Outcome) Category() string {
	switch {
	case o.Status == http.StatusOK:
		return "ok"
	case o.Status == http.StatusTooManyRequests:
		return "http_429"
	case o.Status == http.StatusServiceUnavailable:
		return "http_503"
	case o.Status >= 500:
		return "http_5xx"
	case o.Status >= 400:
		return "http_4xx"
	case o.Status != 0 || o.Err == nil:
		return "other"
	case errors.Is(o.Err, context.Canceled):
		return "cancelled"
	case errors.Is(o.Err, syscall.ECONNREFUSED):
		return "connect_refused"
	case errors.Is(o.Err, syscall.ECONNRESET):
		return "reset"
	}
	// Dial and read timeouts, and context.DeadlineExceeded (which is how an
	// http.Client.Timeout surfaces), all say so through net.Error.
	var ne net.Error
	if errors.As(o.Err, &ne) && ne.Timeout() {
		return "timeout"
	}
	return "other"
}

// Backpressure reports a clean refusal: a 429 or 503 error document,
// which a shedding or draining server sends on purpose.
func (o Outcome) Backpressure() bool {
	return o.Status == http.StatusTooManyRequests || o.Status == http.StatusServiceUnavailable
}

// Retryable reports whether re-firing the request can succeed: refused
// dials, timeouts, resets and non-expired 503s (a shedding or draining
// server invites a retry; an expired deadline cannot be met by one).
func (o Outcome) Retryable() bool {
	switch o.Category() {
	case "connect_refused", "timeout", "reset":
		return true
	}
	return o.Status == http.StatusServiceUnavailable && o.Kind != "expired"
}

// Failure describes a non-200 outcome as an error (nil for a 200): the
// transport error, or the status with the head of the error document.
func (o Outcome) Failure() error {
	if o.Err != nil || o.Status == http.StatusOK {
		return o.Err
	}
	return fmt.Errorf("HTTP %d: %.120s", o.Status, o.Body)
}

// Logits decodes a 200 body into one logits row per input.
func (o Outcome) Logits() ([][]int32, error) {
	var resp serve.InferResponse
	if err := json.Unmarshal(o.Body, &resp); err != nil {
		return nil, err
	}
	logits := make([][]int32, len(resp.Results))
	for i, r := range resp.Results {
		logits[i] = r.Logits
	}
	return logits, nil
}

// roundTrip adapts a function to http.RoundTripper.
type roundTrip func(*http.Request) (*http.Response, error)

func (f roundTrip) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// InProcess returns a client that serves every request by calling h
// directly — no socket, so Shot.URL may stay empty — and an in-process
// arm goes through the same Post as a networked one.
func InProcess(h http.Handler) *http.Client {
	return &http.Client{Transport: roundTrip(func(out *http.Request) (*http.Response, error) {
		in := httptest.NewRequest(out.Method, out.URL.String(), out.Body).WithContext(out.Context())
		in.Header = out.Header
		in.ContentLength = out.ContentLength
		w := httptest.NewRecorder()
		h.ServeHTTP(w, in)
		return w.Result(), nil
	})}
}

// Bodies marshals the body pool: req with data's rows as its inputs,
// batch rows to a body, len(data)/batch bodies.
func Bodies(req serve.InferRequest, data [][]float32, batch int) ([][]byte, error) {
	bodies := make([][]byte, len(data)/batch)
	for i := range bodies {
		req.Inputs = data[i*batch : (i+1)*batch]
		b, err := json.Marshal(&req)
		if err != nil {
			return nil, fmt.Errorf("marshalling request body %d: %w", i, err)
		}
		bodies[i] = b
	}
	return bodies, nil
}
