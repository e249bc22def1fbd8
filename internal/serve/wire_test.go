package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"net/http"
	"strings"
	"testing"

	"rtmap/internal/model"
	"rtmap/internal/workload"
)

// harnessBody is the request the host-time benchmark sends: rows inputs
// of tinycnn's 128 values, marshalled from the client-side struct.
func harnessBody(tb testing.TB, rows int) []byte {
	tb.Helper()
	sh, _ := model.ZooShape("tinycnn")
	body, err := json.Marshal(&InferRequest{
		Model: "tinycnn", Seed: 3, BitExact: true, Inputs: workload.InputData(sh, rows, 7),
	})
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// checkDecode is the differential oracle of FuzzInferDecode. Soundness:
// a body decodeInfer admits (no error, at most 64 rows) is one
// json.Unmarshal into InferRequest admits, with every field and every
// float's bits equal. mustAccept adds completeness for that body.
func checkDecode(t *testing.T, body []byte, mustAccept bool) {
	t.Helper()
	const maxRows = 64
	got, in, err := decodeInfer(body, maxRows)
	if err != nil || in.rows() > maxRows {
		if mustAccept {
			t.Fatalf("refused (err %v, %d rows) a body encoding/json produced: %q", err, in.rows(), body)
		}
		return
	}
	var want InferRequest
	if err := json.Unmarshal(body, &want); err != nil {
		t.Fatalf("accepted a body encoding/json refuses (%v): %q", err, body)
	}
	if got.Inputs != nil {
		t.Fatalf("header decode built Inputs: %q", body)
	}
	if (got.Sparsity == nil) != (want.Sparsity == nil) ||
		got.Sparsity != nil && math.Float64bits(*got.Sparsity) != math.Float64bits(*want.Sparsity) {
		t.Fatalf("sparsity differs: %q", body)
	}
	got.Sparsity, want.Sparsity = nil, nil
	gotDL, wantDL := math.Float64bits(got.DeadlineMS), math.Float64bits(want.DeadlineMS)
	got.DeadlineMS, want.DeadlineMS = 0, 0
	wantRows := want.Inputs
	want.Inputs = nil
	if fmt.Sprintf("%#v", got) != fmt.Sprintf("%#v", want) || gotDL != wantDL {
		t.Fatalf("header differs:\n got %#v\nwant %#v\nbody %q", got, want, body)
	}
	if in.rows() != len(wantRows) {
		t.Fatalf("%d rows, encoding/json has %d: %q", in.rows(), len(wantRows), body)
	}
	for r, wantRow := range wantRows {
		row := in.row(r)
		if len(row) != len(wantRow) {
			t.Fatalf("row %d: %d values, encoding/json has %d: %q", r, len(row), len(wantRow), body)
		}
		for i := range row {
			if math.Float32bits(row[i]) != math.Float32bits(wantRow[i]) {
				t.Fatalf("row %d value %d: %x, encoding/json has %x: %q",
					r, i, math.Float32bits(row[i]), math.Float32bits(wantRow[i]), body)
			}
		}
	}
}

// fuzzedRequest draws a client-side request from the fuzzer's values:
// any model and class string, 0-64 rows, and floats from the edges of
// the format as often as from its middle.
func fuzzedRequest(model, class string, seed uint64) InferRequest {
	rng := rand.New(rand.NewPCG(seed, 15))
	req := InferRequest{
		Model: model, Class: class,
		ActBits: rng.IntN(12) - 2, Seed: rng.Uint64() >> rng.UintN(64), BitExact: rng.IntN(2) == 0,
	}
	if rng.IntN(2) == 0 {
		sp := rng.Float64()
		req.Sparsity = &sp
	}
	if rng.IntN(2) == 0 {
		req.DeadlineMS = rng.ExpFloat64() * 100
	}
	edges := []float32{0, float32(math.Copysign(0, -1)), 1, -1, math.MaxFloat32, -math.MaxFloat32,
		math.SmallestNonzeroFloat32, 1e-40, 1.17549435e-38, 16777217, 0.1, 1e21, 1e-7}
	if rows := rng.IntN(66) - 1; rows >= 0 { // -1: leave Inputs nil, marshalled as null
		req.Inputs = make([][]float32, rows)
		for r := range req.Inputs {
			req.Inputs[r] = make([]float32, rng.IntN(6))
			for i := range req.Inputs[r] {
				v := edges[rng.IntN(len(edges))]
				if rng.IntN(2) == 0 {
					v = math.Float32frombits(rng.Uint32())
					if v != v || math.IsInf(float64(v), 0) { // not JSON
						v = 0.5
					}
				}
				req.Inputs[r][i] = v
			}
		}
	}
	return req
}

// FuzzInferDecode pins the wire codec to encoding/json (see checkDecode).
// body is the soundness half; the completeness half marshals a request
// drawn from the other arguments, which the codec must take. CI runs the
// seed corpus (go test -run FuzzInferDecode).
func FuzzInferDecode(f *testing.F) {
	sh, _ := model.ZooShape("tinycnn")
	admission, err := json.Marshal(&InferRequest{Model: "tinycnn", Inputs: workload.InputData(sh, 1, 7)})
	if err != nil {
		f.Fatal(err)
	}
	seeds := []string{
		string(harnessBody(f, 8)),
		string(admission),
		`{"model":"m","inputs":[[1,2],[3]],"inputs":[[4]]}`,            // duplicate key: last wins
		`{"inputs":[[1]],"model":"m","inputs":null}`,                   // ... also when it is null
		`{"inputs":"junk","inputs":[[1]]}`,                             // ... and the first still counts
		`{"model":"m","inp\u0075ts":[[1]]}`,                            // escaped key
		`{"model":"m","INPUTS":[[1]]}`,                                 // odd-case key
		`{"inputs":[[1]],"Inputs":null}`,                               // ... shadowing a literal one
		`{"model":"m","inputſ":[[1]]}`,                                 // folds to "inputs" too
		`{"model":"m","inputs":[[1,null]]}`,                            //
		`{"model":"m","inputs":[null,[1]]}`,                            //
		`{"model":"m","inputs":null}`,                                  //
		`null`,                                                         //
		`{"model":"m","inputs":[[1e39]]}`,                              // out of float32 range
		`{"model":"m","inputs":[[-0, 0, -0.0, 1e-46, 1e-40, 5e-324]]}`, // signed zero, denormals, underflow
		`{"model":"m","inputs":[[Inf]]}`,                               // ParseFloat would take these five
		`{"model":"m","inputs":[[0x1p-2]]}`,                            //
		`{"model":"m","inputs":[[.5]]}`,                                //
		`{"model":"m","inputs":[[+1]]}`,                                //
		`{"model":"m","inputs":[[1_0]]}`,                               //
		`{"model":"m","inputs":[[01]]}`,                                //
		`{"model":"m","inputs":[[1.]]}`,                                //
		`{"model":"m","inputs":[[1E+2, 1e-2, 0.5e0]]}`,                 //
		`{"model":"m","inputs":[[1,[2]],{"inputs":[3]},"]"]}`,          // nested junk
		`{"model":"m","inputs":[[1]}]}`,                                // mismatched brackets
		`{"model":"m","x":{"inputs":[["deep"]]},"inputs":[[1]]}`,       // only the top level counts
		`{"model":"m","inputs":[["1"]]}`,                               //
		`{"model":"m","inputs":[[1]] x}`,                               //
		`{"model":"m","inputs":[[1]]} trailing`,                        //
		`{"model":"m","inputs":}`,                                      //
		`{"model":"m","inputs":[[1]`,                                   // unterminated array
		`{"model":"m","inputs":[[1]],"class":"unterminated`,            // unterminated string
		`{"model":"m","inputs":"[[1]]`,                                 //
		`{"model":"a\"inputs\":","inputs" : [ [ 1 , 2 ] , [ ] ] }`,     // key text inside a string; spaces
		`{"model":"m","sparsity":0.5,"sparsity":null,"deadline_ms":1e300,"inputs":[]}`,
		`["inputs",[[1]]]`,
		`{"a":"inputs":[[1]]}`,
	}
	for i, s := range seeds {
		f.Add([]byte(s), "tinycnn", "interactive", uint64(i))
	}
	f.Add([]byte(`{}`), "esc\"aped\\\n  <né>", "\xff", uint64(99))

	f.Fuzz(func(t *testing.T, body []byte, model, class string, seed uint64) {
		checkDecode(t, body, false)
		marshalled, err := json.Marshal(fuzzedRequest(model, class, seed))
		if err != nil {
			t.Fatal(err) // fuzzedRequest draws only what JSON can carry
		}
		checkDecode(t, marshalled, true)
	})
}

// TestInferWireNarrowings names the three places where the node is
// deliberately stricter than encoding/json; each is a 400, and each
// case is the control request with only the narrowed detail changed.
func TestInferWireNarrowings(t *testing.T) {
	_, ts := testServer(t, Options{})
	row := strings.TrimSuffix(strings.Repeat("1,", 128), ",")
	post := func(body string) (int, ErrorResponse) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/infer", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var e ErrorResponse
		if resp.StatusCode != http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
				t.Fatal(err)
			}
		}
		return resp.StatusCode, e
	}
	if code, e := post(`{"model":"tinycnn","inputs":[[` + row + `]]}`); code != http.StatusOK {
		t.Fatalf("control request: HTTP %d %+v", code, e)
	}
	for _, c := range []struct{ name, body string }{
		{"inputs key spelled with an escape", `{"model":"tinycnn","inp\u0075ts":[[` + row + `]]}`},
		{"inputs key in another case", `{"model":"tinycnn","Inputs":[[` + row + `]]}`},
		{"null for a value", `{"model":"tinycnn","inputs":[[null,` + row[2:] + `]]}`},
		{"null for a row", `{"model":"tinycnn","inputs":[null]}`},
		{"string for a value", `{"model":"tinycnn","inputs":[["1",` + row[2:] + `]]}`},
		{"number outside the JSON grammar", `{"model":"tinycnn","inputs":[[.5,` + row[2:] + `]]}`},
		{"hex float", `{"model":"tinycnn","inputs":[[0x1p-2,` + row[2:] + `]]}`},
	} {
		code, e := post(c.body)
		if code != http.StatusBadRequest || e.Kind != KindBadRequest || !strings.HasPrefix(e.Error, "decoding request:") {
			t.Errorf("%s: HTTP %d %+v, want a 400 bad_request from the decoder", c.name, code, e)
		}
	}
}

// TestInferBodyStrictness: one body reader, one strictness. An over-limit
// body is 413 on the node as on the router, whether or not its length is
// declared, and bytes after the JSON object are refused.
func TestInferBodyStrictness(t *testing.T) {
	_, ts := testServer(t, Options{})
	body := harnessBody(t, 1)

	resp, err := http.Post(ts.URL+"/v1/infer", "application/json", bytes.NewReader(append(body[:len(body):len(body)], " {}"...)))
	if err != nil {
		t.Fatal(err)
	}
	if doc := readAll(t, resp); resp.StatusCode != http.StatusBadRequest || !strings.Contains(doc, "decoding request:") {
		t.Errorf("trailing bytes: HTTP %d %s, want a 400 from the decoder", resp.StatusCode, doc)
	}

	// Declared and undeclared (chunked) lengths take the two arms of ReadBody.
	huge := bytes.Repeat([]byte(" "), maxBodyBytes+1)
	for _, declared := range []bool{true, false} {
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/infer", bytes.NewReader(huge))
		if err != nil {
			t.Fatal(err)
		}
		if !declared {
			req.ContentLength = -1
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		if doc := readAll(t, resp); resp.StatusCode != http.StatusRequestEntityTooLarge || !strings.Contains(doc, KindBadRequest) {
			t.Errorf("over-limit body (declared %v): HTTP %d %s, want 413 bad_request", declared, resp.StatusCode, doc)
		}
	}
}

// TestInferDecodeBoundedWork: the matrix parser stops one row past the
// limit and at the first over-long row, so a body of a million one-value
// rows costs 65 rows before the request is refused.
func TestInferDecodeBoundedWork(t *testing.T) {
	million := []byte(`{"model":"tinycnn","inputs":[` + strings.TrimSuffix(strings.Repeat("[1],", 1_000_000), ",") + `]}`)
	_, in, err := decodeInfer(million, 64)
	if err != nil {
		t.Fatal(err)
	}
	if in.rows() != 65 || len(in.flat) != 65 {
		t.Errorf("parsed %d rows, %d values of a million-row body; want 65 of each", in.rows(), len(in.flat))
	}
	var m inputMatrix
	if err := m.parse([]byte(`[[1,2,3],[4,5,6,7]]`), 64, 3); err == nil || len(m.flat) != 6 {
		t.Errorf("row over the value cap: err %v after %d values, want an error after 6", err, len(m.flat))
	}

	_, ts := testServer(t, Options{})
	resp, err := http.Post(ts.URL+"/v1/infer", "application/json", bytes.NewReader(million))
	if err != nil {
		t.Fatal(err)
	}
	if doc := readAll(t, resp); resp.StatusCode != http.StatusBadRequest || !strings.Contains(doc, "more than 64 inputs") {
		t.Errorf("million-row body: HTTP %d %s, want the 400 input-count refusal", resp.StatusCode, doc)
	}
}

// TestInferDecodeAllocs: decoding the harness body allocates eleven
// objects — the header buffer and the span list, the decode target and
// encoding/json's own state for a hundred-byte header, the model string,
// the value slice and the row index — none per value or per row.
func TestInferDecodeAllocs(t *testing.T) {
	body := harnessBody(t, 8)
	allocs := testing.AllocsPerRun(100, func() {
		if _, in, err := decodeInfer(body, 64); err != nil || in.rows() != 8 {
			t.Fatalf("decode: %v, %d rows", err, in.rows())
		}
	})
	if allocs > 11 {
		t.Errorf("decodeInfer: %v allocs per 8x128 body, want <= 11", allocs)
	}
}

// BenchmarkInferDecode is the node's share of the wire format: split,
// header decode and matrix parse of the harness bodies.
func BenchmarkInferDecode(b *testing.B) {
	for _, rows := range []int{8, 1} {
		b.Run(fmt.Sprintf("%dx128", rows), func(b *testing.B) {
			body := harnessBody(b, rows)
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, in, err := decodeInfer(body, 64); err != nil || in.rows() != rows {
					b.Fatalf("decode: %v, %d rows", err, in.rows())
				}
			}
		})
	}
}
