package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"rtmap/internal/dispatch"
	"rtmap/internal/model"
	"rtmap/internal/serve"
	"rtmap/internal/workload"
)

// harnessBody is the request the host-time benchmark sends: rows inputs
// of tinycnn's 128 values, marshalled from the client-side struct.
func harnessBody(tb testing.TB, rows int) []byte {
	tb.Helper()
	sh, _ := model.ZooShape("tinycnn")
	body, err := json.Marshal(&serve.InferRequest{
		Model: "tinycnn", Seed: 3, BitExact: true, Class: "bulk", DeadlineMS: 250,
		Inputs: workload.InputData(sh, rows, 7),
	})
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// FuzzRouterProbe holds the router's split-header probe against a full
// decode — json.Unmarshal of the whole body into the probed fields: on
// every body both take, route key, model, class and deadline
// agree. Whatever the probe takes is relayed to the node byte for byte,
// whatever it refuses is a 400 that reaches no node, and nothing panics.
// The two may disagree on *whether* to take a body: the probe does not
// look inside the activations (the node refuses what is malformed there)
// and refuses an inputs key that is not spelled literally.
func FuzzRouterProbe(f *testing.F) {
	var mu sync.Mutex
	var relayed [][]byte
	node := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		mu.Lock()
		relayed = append(relayed, body)
		mu.Unlock()
		io.WriteString(w, `{"results":[]}`)
	}))
	f.Cleanup(node.Close)
	r, err := New(Options{Nodes: []string{node.URL}, Logf: func(string, ...any) {}})
	if err != nil {
		f.Fatal(err)
	}
	ts := httptest.NewServer(r.Handler())
	f.Cleanup(ts.Close)

	for _, seed := range []string{
		string(harnessBody(f, 8)),
		`{"model":"m","act_bits":4,"sparsity":0.75,"seed":9,"class":"interactive","deadline_ms":12.5,"inputs":[[1,2]]}`,
		`{"model":"m","inputs":[[1]],"deadline_ms":1e300,"inputs":[[2]],"model":"n"}`, // duplicates: last wins
		`{"inputs":[["model",{"model":"x"}]],"model":"m"}`,                            // fields inside the activations are not fields
		`{"model":"m","inputs":"{\"model\":\"x\"}]","class":"bulk"}`,                  // brackets inside a string
		`{"model":"m","inp\u0075ts":[[1]]}`,                                           // alias keys: refused
		`{"model":"m","INPUTS":[[1]]}`,
		`{"model":"m","inputs":[[1]}]}`, // only the node looks inside
		`{"model":"m","inputs":[[1,null,"x"]]}`,
		`{"model":"m","inputs":}`,
		`{"model":"m","inputs":[[1]`,
		`{"model":"m","class":"unterminated`,
		`{"MODEL":"m","Deadline_MS":5,"sparsity":null,"seed":18446744073709551615}`,
		`{"model":"","inputs":[[1]]}`,
		`{"model":"m","inputs":[[1]]} x`,
		`{"model":"m","seed":-1}`,
		`null`,
		`[{"model":"m"}]`,
	} {
		f.Add([]byte(seed))
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		now := time.Unix(1_700_000_000, 0)
		got, took := routeOf(body, http.Header{}, now)

		var ref struct {
			Model      string   `json:"model"`
			ActBits    int      `json:"act_bits"`
			Sparsity   *float64 `json:"sparsity"`
			Seed       uint64   `json:"seed"`
			Class      string   `json:"class"`
			DeadlineMS float64  `json:"deadline_ms"`
		}
		if took && json.Unmarshal(body, &ref) == nil && ref.Model != "" {
			// A class or deadline the node will answer 400 to routes as
			// standard class with no deadline.
			want := route{key: RouteKey(ref.Model, ref.ActBits, ref.Sparsity, ref.Seed), model: ref.Model, class: dispatch.ClassStandard}
			if class, err := dispatch.ParseClass(ref.Class); err == nil && ref.DeadlineMS >= 0 {
				want.class = class
				if ms := ref.DeadlineMS; ms > 0 {
					want.deadline = now.Add(time.Duration(min(ms, serve.MaxDeadlineMS) * float64(time.Millisecond)))
				}
			}
			if got != want {
				t.Fatalf("probe %+v, full decode %+v: %q", got, want, body)
			}
		}

		mu.Lock()
		relayed = relayed[:0]
		mu.Unlock()
		resp, err := http.Post(ts.URL+"/v1/infer", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		mu.Lock()
		defer mu.Unlock()
		switch {
		case took && (resp.StatusCode != http.StatusOK || len(relayed) != 1 || !bytes.Equal(relayed[0], body)):
			t.Fatalf("HTTP %d, node saw %q, want a relay of %q", resp.StatusCode, relayed, body)
		case !took && (resp.StatusCode != http.StatusBadRequest || len(relayed) != 0):
			t.Fatalf("HTTP %d, node saw %q, want a 400 and no relay of %q", resp.StatusCode, relayed, body)
		}
	})
}

// TestRouterBodyLimit: the shared body reader holds the router's limit
// whether or not the client declares a length; a body at the limit is
// relayed, one byte more is a 413 that reaches no node.
func TestRouterBodyLimit(t *testing.T) {
	stub := newStub(t, ok200(`{}`))
	_, ts := newTestRouter(t, Options{MaxBodyBytes: 64}, stub.ts.URL)
	atLimit := []byte(`{"model":"m","inputs":[[1,2,3]]}`)
	atLimit = append(atLimit, bytes.Repeat([]byte(" "), 64-len(atLimit))...)
	for _, c := range []struct {
		body     []byte
		declared bool
		want     int
	}{
		{atLimit, true, http.StatusOK},
		{atLimit, false, http.StatusOK},
		{append(atLimit[:64:64], ' '), true, http.StatusRequestEntityTooLarge},
		{append(atLimit[:64:64], ' '), false, http.StatusRequestEntityTooLarge},
	} {
		before := stub.hits.Load()
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/infer", bytes.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		if !c.declared {
			req.ContentLength = -1 // chunked
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		relayed := stub.hits.Load() != before
		if resp.StatusCode != c.want || relayed != (c.want == http.StatusOK) {
			t.Errorf("%d-byte body, declared %v: HTTP %d, relayed %v; want HTTP %d",
				len(c.body), c.declared, resp.StatusCode, relayed, c.want)
		}
	}
}

// BenchmarkRouterProbe is the router's share of the wire format: split
// and header decode of the harness bodies, SLO fields resolved.
func BenchmarkRouterProbe(b *testing.B) {
	for _, rows := range []int{8, 1} {
		b.Run(fmt.Sprintf("%dx128", rows), func(b *testing.B) {
			body := harnessBody(b, rows)
			hdr := http.Header{}
			now := time.Now()
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if rt, ok := routeOf(body, hdr, now); !ok || rt.class != dispatch.ClassBulk {
					b.Fatalf("probe: %+v %v", rt, ok)
				}
			}
		})
	}
}
