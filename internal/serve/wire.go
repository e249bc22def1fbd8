package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strconv"
)

// This file is the server side of the /v1/infer wire format, shared by
// the node and the cluster router. A request body is a hundred bytes of
// header and kilobytes of activations, and reflection over the latter is
// what encoding/json spends its time on. So the body is split: one
// byte-level pass finds the value of every top-level "inputs" key,
// encoding/json decodes what is left (every other field keeps its
// semantics), and only the node parses the activations, with the same
// strconv.ParseFloat(·, 32) call encoding/json makes for a float32
// (docs/ARCHITECTURE.md "Wire format").

// maxBodyBytes caps a /v1/infer request body on the node; the router's
// cap is Options.MaxBodyBytes with the same default.
const maxBodyBytes = 64 << 20

// maxRowValues caps the values of one inputs row, so a hostile row is
// refused while it is parsed rather than after it has been buffered. The
// largest zoo input (resnet18, 3x224x224) is a seventh of it.
const maxRowValues = 1 << 20

// ErrBodyTooLarge is ReadBody's error for a body over its limit (HTTP 413
// on both tiers).
var ErrBodyTooLarge = errors.New("body exceeds limit")

// ReadBody reads an HTTP body of at most limit bytes. A declared length
// (Request.ContentLength, Response.ContentLength; negative when unknown)
// is read into a buffer of exactly that size; otherwise the buffer grows,
// and never past limit+1 bytes.
func ReadBody(r io.Reader, length, limit int64) ([]byte, error) {
	if length > limit {
		return nil, ErrBodyTooLarge
	}
	if length >= 0 {
		body := make([]byte, length)
		_, err := io.ReadFull(r, body)
		return body, err
	}
	body, err := io.ReadAll(io.LimitReader(r, limit+1))
	if err == nil && int64(len(body)) > limit {
		err = ErrBodyTooLarge
	}
	return body, err
}

// inferHeader is the decode target for a split body: an InferRequest
// whose "inputs" member is shadowed (the shallower field wins) by a
// counter, so the header decode never builds a [][]float32 and reports
// how many keys encoding/json took for "inputs".
type inferHeader struct {
	InferRequest
	InputsKeys inputsKeys `json:"inputs"`
}

// inputsKeys counts the members encoding/json matched to "inputs".
type inputsKeys int

func (k *inputsKeys) UnmarshalJSON([]byte) error { *k++; return nil }

// DecodeInferHeader decodes every field of a /v1/infer body except the
// activations, which are neither parsed nor validated (the router's view:
// it relays the body verbatim and the node judges the inputs). Inputs is
// left nil.
func DecodeInferHeader(body []byte) (InferRequest, error) {
	req, _, err := decodeHeader(body)
	return req, err
}

// decodeHeader splits body and decodes the header, returning the spans of
// the "inputs" values in body order.
func decodeHeader(body []byte) (InferRequest, [][2]int, error) {
	header, spans := splitInfer(body)
	var h inferHeader
	if err := json.Unmarshal(header, &h); err != nil {
		return InferRequest{}, nil, err
	}
	// encoding/json matches keys through escapes and case folding; the
	// splitter matches bytes. A key only the former recognises would have
	// its activations silently dropped, so it is refused instead.
	if int(h.InputsKeys) != len(spans) {
		return InferRequest{}, nil, errors.New(`the inputs key must be spelled "inputs"`)
	}
	return h.InferRequest, spans, nil
}

// decodeInfer decodes a /v1/infer body on the node: the header through
// encoding/json, the activations through inputMatrix.parse. Every
// "inputs" value must parse and the last one stands, as with
// encoding/json.
func decodeInfer(body []byte, maxRows int) (InferRequest, inputMatrix, error) {
	req, spans, err := decodeHeader(body)
	if err != nil {
		return InferRequest{}, inputMatrix{}, err
	}
	var in inputMatrix
	for _, sp := range spans {
		if err := in.parse(body[sp[0]:sp[1]], maxRows, maxRowValues); err != nil {
			return InferRequest{}, inputMatrix{}, err
		}
		if in.rows() > maxRows {
			break // over the limit whatever follows: the caller refuses it
		}
	}
	return req, in, nil
}

// splitInfer finds the value span of every top-level key spelled
// literally "inputs" and returns the header — body with each span
// replaced by null — plus the spans in body order. It tracks string
// state and bracket depth and nothing else: the header goes through
// encoding/json and the spans through inputMatrix.parse, and a body is
// well-formed exactly when all of those accept (a string followed by a
// colon is a key in any document encoding/json accepts, and replacing a
// whole value by null keeps a document's structure).
func splitInfer(body []byte) (header []byte, spans [][2]int) {
	header = make([]byte, 0, 256)
	depth, last, lo := 0, 0, -1 // lo: start of the open span, -1 outside one
	closeSpan := func(hi int) {
		for hi > lo && isSpace(body[hi-1]) {
			hi--
		}
		spans = append(spans, [2]int{lo, hi})
		header = append(append(header, body[last:lo]...), "null"...)
		last, lo = hi, -1
	}
	for i := 0; i < len(body); i++ {
		switch body[i] {
		case '"':
			end := skipString(body, i)
			if depth == 1 && lo < 0 && string(body[i:end]) == `"inputs"` {
				if colon := skipSpace(body, end); colon < len(body) && body[colon] == ':' {
					lo = skipSpace(body, colon+1)
					end = lo
				}
			}
			i = end - 1
		case '{', '[':
			depth++
		case '}', ']':
			if depth == 1 && lo >= 0 {
				closeSpan(i)
			}
			depth--
		case ',':
			if depth == 1 && lo >= 0 {
				closeSpan(i)
			}
		}
	}
	if lo >= 0 {
		closeSpan(len(body))
	}
	return append(header, body[last:]...), spans
}

// skipString returns the index just past the string opening at b[i]
// (len(b) when it never closes).
func skipString(b []byte, i int) int {
	for i++; i < len(b); i++ {
		switch b[i] {
		case '\\':
			i++
		case '"':
			return i + 1
		}
	}
	return len(b)
}

func isSpace(c byte) bool { return c == ' ' || c == '\n' || c == '\t' || c == '\r' }

// skipSpace returns the index of the first non-space byte at or after i.
func skipSpace(b []byte, i int) int {
	for i < len(b) && isSpace(b[i]) {
		i++
	}
	return i
}

// inputMatrix is a request's activations: every row's values back to
// back in one slice, ends[i] the end of row i.
type inputMatrix struct {
	flat []float32
	ends []int
}

func (m *inputMatrix) rows() int { return len(m.ends) }

// row returns row i, capped so an append cannot reach row i+1.
func (m *inputMatrix) row(i int) []float32 {
	lo := 0
	if i > 0 {
		lo = m.ends[i-1]
	}
	return m.flat[lo:m.ends[i]:m.ends[i]]
}

// parse replaces m by the matrix in b: null (no rows) or an array of
// arrays of JSON numbers. It is narrower than encoding/json decoding into
// [][]float32 only in refusing null for a row or a value. Parsing stops
// after row maxRows+1 — the caller reads rows() > maxRows as "too many"
// — and fails at the first row longer than maxVals.
func (m *inputMatrix) parse(b []byte, maxRows, maxVals int) error {
	m.flat, m.ends = m.flat[:0], m.ends[:0]
	if string(b) == "null" {
		return nil
	}
	if len(b) == 0 || b[0] != '[' {
		return errors.New("inputs: want an array of arrays of numbers")
	}
	if m.flat == nil {
		// A well-formed matrix has one comma fewer than values and one
		// row per inner bracket, so both slices are allocated once; the
		// caps bound what a malformed one can ask for.
		m.flat = make([]float32, 0, min(bytes.Count(b, []byte{','})+1, 1<<16))
		m.ends = make([]int, 0, min(bytes.Count(b, []byte{'['})-1, maxRows+1))
	}
	i := skipSpace(b, 1)
	if i < len(b) && b[i] == ']' {
		i++
	} else {
		for {
			if m.rows() > maxRows {
				return nil
			}
			var err error
			if i, err = m.parseRow(b, i, maxVals); err != nil {
				return err
			}
			if i = skipSpace(b, i); i < len(b) && b[i] == ',' {
				i = skipSpace(b, i+1)
				continue
			}
			if i < len(b) && b[i] == ']' {
				i++
				break
			}
			return fmt.Errorf("inputs: want , or ] after row %d", m.rows()-1)
		}
	}
	if i != len(b) {
		return errors.New("inputs: unexpected data after the array")
	}
	return nil
}

// parseRow appends the row opening at b[i] and returns the index just
// past its closing bracket.
func (m *inputMatrix) parseRow(b []byte, i, maxVals int) (int, error) {
	r := m.rows()
	if i >= len(b) || b[i] != '[' {
		return 0, fmt.Errorf("inputs row %d: want an array of numbers", r)
	}
	start := len(m.flat)
	if i = skipSpace(b, i+1); i < len(b) && b[i] == ']' {
		m.ends = append(m.ends, start)
		return i + 1, nil
	}
	for {
		end := numberEnd(b, i)
		if end < 0 {
			return 0, fmt.Errorf("inputs row %d value %d: not a JSON number", r, len(m.flat)-start)
		}
		if len(m.flat)-start == maxVals {
			return 0, fmt.Errorf("inputs row %d: more than %d values", r, maxVals)
		}
		// The conversion encoding/json applies to a float32, so the bits
		// are its bits; the string is a stack temporary for any literal
		// under 32 bytes.
		f, err := strconv.ParseFloat(string(b[i:end]), 32)
		if err != nil {
			return 0, fmt.Errorf("inputs row %d value %d: %w", r, len(m.flat)-start, err)
		}
		m.flat = append(m.flat, float32(f))
		if i = skipSpace(b, end); i < len(b) && b[i] == ',' {
			i = skipSpace(b, i+1)
			continue
		}
		if i < len(b) && b[i] == ']' {
			m.ends = append(m.ends, len(m.flat))
			return i + 1, nil
		}
		return 0, fmt.Errorf("inputs row %d: want , or ] after value %d", r, len(m.flat)-start-1)
	}
}

// numberEnd returns the index just past the JSON number starting at b[i]
// (-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?), or -1 when none
// starts there. ParseFloat alone would also take Inf, hex floats, "+1",
// ".5" and "1_0".
func numberEnd(b []byte, i int) int {
	digits := func() bool {
		start := i
		for i < len(b) && '0' <= b[i] && b[i] <= '9' {
			i++
		}
		return i > start
	}
	if i < len(b) && b[i] == '-' {
		i++
	}
	if i < len(b) && b[i] == '0' {
		i++
	} else if !digits() {
		return -1
	}
	if i < len(b) && b[i] == '.' {
		if i++; !digits() {
			return -1
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		if i++; i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if !digits() {
			return -1
		}
	}
	return i
}
