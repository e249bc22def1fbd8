package loadgen

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"rtmap/internal/serve"
)

// stubServer answers /<status>[/<kind>]/v1/infer with that status and an
// error document of that kind, and holds /hang/v1/infer until the
// request is abandoned.
func stubServer(t *testing.T) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		parts := strings.Split(strings.Trim(strings.TrimSuffix(r.URL.Path, "/v1/infer"), "/"), "/")
		if parts[0] == "hang" {
			<-r.Context().Done()
			return
		}
		var status int
		fmt.Sscan(parts[0], &status)
		if status == http.StatusOK {
			io.WriteString(w, `{"model":"m","results":[{"logits":[1,-2,3]},{"logits":[4,5,6]}]}`)
			return
		}
		w.WriteHeader(status)
		if len(parts) > 1 {
			fmt.Fprintf(w, `{"error":"stub","kind":%q}`, parts[1])
		}
	}))
	t.Cleanup(ts.Close)
	return ts
}

func TestOutcomeTaxonomy(t *testing.T) {
	ts := stubServer(t)
	// A port nobody listens on: bind one, note it, release it.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	closedPort := "http://" + ln.Addr().String()
	ln.Close()

	background := func() (context.Context, context.CancelFunc) {
		return context.WithCancel(context.Background())
	}
	cases := []struct {
		name     string
		url      string
		client   *http.Client
		ctx      func() (context.Context, context.CancelFunc)
		category string
		kind     string
		backoff  bool // Backpressure
		retry    bool // Retryable
	}{
		{name: "200", url: ts.URL + "/200", category: "ok"},
		{name: "429 shed", url: ts.URL + "/429/shed", category: "http_429", kind: "shed", backoff: true},
		{name: "503 expired", url: ts.URL + "/503/expired", category: "http_503", kind: "expired", backoff: true},
		{name: "503 unavailable", url: ts.URL + "/503/unavailable", category: "http_503", kind: "unavailable", backoff: true, retry: true},
		{name: "400", url: ts.URL + "/400/bad_request", category: "http_4xx", kind: "bad_request"},
		{name: "500 without a document", url: ts.URL + "/500", category: "http_5xx"},
		{name: "refused dial", url: closedPort, category: "connect_refused", retry: true},
		{name: "client timeout", url: ts.URL + "/hang", client: &http.Client{Timeout: 30 * time.Millisecond}, category: "timeout", retry: true},
		{name: "ctx cancelled", url: ts.URL + "/hang", category: "cancelled", ctx: func() (context.Context, context.CancelFunc) {
			ctx, cancel := context.WithCancel(context.Background())
			time.AfterFunc(30*time.Millisecond, cancel)
			return ctx, cancel
		}},
		// The caller's own deadline is the caller withdrawing the request,
		// not the server timing out.
		{name: "ctx deadline", url: ts.URL + "/hang", category: "cancelled", ctx: func() (context.Context, context.CancelFunc) {
			return context.WithTimeout(context.Background(), 30*time.Millisecond)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.client == nil {
				tc.client = http.DefaultClient
			}
			if tc.ctx == nil {
				tc.ctx = background
			}
			ctx, cancel := tc.ctx()
			defer cancel()
			o := Post(ctx, tc.client, Shot{URL: tc.url, Body: []byte(`{}`)})
			if got := o.Category(); got != tc.category {
				t.Errorf("Category() = %q, want %q (outcome %+v)", got, tc.category, o)
			}
			if o.Kind != tc.kind {
				t.Errorf("Kind = %q, want %q", o.Kind, tc.kind)
			}
			if o.Backpressure() != tc.backoff {
				t.Errorf("Backpressure() = %v, want %v", o.Backpressure(), tc.backoff)
			}
			if o.Retryable() != tc.retry {
				t.Errorf("Retryable() = %v, want %v", o.Retryable(), tc.retry)
			}
			if (o.Failure() == nil) != (tc.category == "ok") {
				t.Errorf("Failure() = %v for a %q outcome", o.Failure(), tc.category)
			}
			if (o.Err != nil) != (o.Status == 0) {
				t.Errorf("Err %v with Status %d: want exactly one of them set", o.Err, o.Status)
			}
		})
	}

	logits, err := Post(context.Background(), http.DefaultClient, Shot{URL: ts.URL + "/200"}).Logits()
	if err != nil || len(logits) != 2 || fmt.Sprint(logits) != "[[1 -2 3] [4 5 6]]" {
		t.Errorf("Logits() = %v, %v, want the two rows the stub sent", logits, err)
	}
}

// InProcess hands the handler the request Post built — path, headers,
// body — and hands back exactly the status and bytes the handler wrote.
func TestInProcessIsTheSameRoundTrip(t *testing.T) {
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		w.WriteHeader(http.StatusTeapot)
		fmt.Fprintf(w, "%s %s class=%s deadline=%s trace=%s type=%s len=%d body=%s", r.Method, r.URL.Path,
			r.Header.Get(serve.ClassHeader), r.Header.Get(serve.DeadlineHeader), r.Header.Get(serve.TraceHeader),
			r.Header.Get("Content-Type"), r.ContentLength, body)
	})
	shot := Shot{Body: []byte(`{"model":"m"}`), TraceID: "t1", Class: "bulk", DeadlineMS: 12.5}
	want := `POST /v1/infer class=bulk deadline=12.5 trace=t1 type=application/json len=13 body={"model":"m"}`

	inproc := Post(context.Background(), InProcess(h), shot)
	ts := httptest.NewServer(h)
	defer ts.Close()
	shot.URL = ts.URL
	wire := Post(context.Background(), http.DefaultClient, shot)
	for name, o := range map[string]Outcome{"in-process": inproc, "socket": wire} {
		if o.Status != http.StatusTeapot || !bytes.Equal(o.Body, []byte(want)) || o.Err != nil {
			t.Errorf("%s: status %d, err %v, body %q\nwant status 418, body %q", name, o.Status, o.Err, o.Body, want)
		}
	}
}

func TestBodies(t *testing.T) {
	data := [][]float32{{1}, {2}, {3}, {4}, {5}}
	bodies, err := Bodies(serve.InferRequest{Model: "m", Seed: 3}, data, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{`{"model":"m","seed":3,"inputs":[[1],[2]]}`, `{"model":"m","seed":3,"inputs":[[3],[4]]}`}
	if len(bodies) != len(want) {
		t.Fatalf("%d bodies from 5 rows at batch 2, want %d (a short tail is dropped)", len(bodies), len(want))
	}
	for i, b := range bodies {
		if string(b) != want[i] {
			t.Errorf("body %d = %s, want %s", i, b, want[i])
		}
	}
}
