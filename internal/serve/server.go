package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"math"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"rtmap/internal/core"
	"rtmap/internal/dispatch"
	"rtmap/internal/metrics"
	"rtmap/internal/tensor"
	"rtmap/internal/trace"
	"rtmap/internal/verify"
)

// Options configures a Server. Zero values select the documented
// defaults.
type Options struct {
	// Addr is the listen address ("127.0.0.1:0" picks a free port).
	Addr string
	// Devices is the size of the simulated AP device fleet.
	Devices int
	// MaxBatch caps micro-batch size; Window is the cap on hold time while
	// every device is busy: a request that finds an idle device is
	// dispatched at once, and a batch held behind busy devices leaves when
	// one frees, it fills, a deadline presses, or Window runs out.
	MaxBatch int
	Window   time.Duration
	// MaxModels bounds the compiled-model registry (LRU eviction beyond).
	MaxModels int
	// ShardStages is the depth of the layer-range pipeline every model is
	// served as, clamped to Devices and the model's layer count. The
	// default (anything <= 1) is one stage: the whole model on one device,
	// batches dispatched to whichever is least loaded. Deeper pipelines run
	// on the same executor, each stage pinned to its own fleet device with
	// micro-batches streaming through the stages.
	ShardStages int
	// Replicas > 1 places that many independent copies of every admitted
	// model across the fleet (device-disjoint placements, clamped to
	// Devices/stages). Batches balance across live replicas, and work on
	// a failed device fails over to a surviving replica.
	Replicas int
	// FailAfter > 0 arms fault injection: device FailDevice is marked
	// dead FailAfter after the server starts serving (the failover demo
	// behind rtmap-serve -fail-device). The zero value disables it.
	FailDevice int
	FailAfter  time.Duration
	// ModelFiles extends the servable zoo with JSON model files
	// (model.WriteJSON format), keyed by serving name. Files decode at
	// admission; a malformed file fails that request with HTTP 400.
	ModelFiles map[string]string
	// Queue is the per-model intake capacity in requests (a request's
	// samples enter formation together) and the per-device queue capacity
	// in batches; senders block beyond it.
	Queue int
	// Cache overrides the compiled-artifact cache consulted by model
	// admissions; nil uses the process-wide shared cache, and NoCache
	// disables artifact caching outright.
	Cache   *core.Cache
	NoCache bool
	// MaxInputs caps the number of samples one /v1/infer request may
	// carry (default 64).
	MaxInputs int
	// TraceBuf is the span ring-buffer capacity behind /debug/traces
	// (default trace.DefaultCapacity). TraceSample traces 1-in-N requests
	// that carry no X-Rtmap-Trace header (0 honors only explicit
	// headers); TraceLayerSample additionally records per-layer execution
	// spans for 1-in-N traced requests (0 disables layer spans).
	TraceBuf         int
	TraceSample      int
	TraceLayerSample int
	// TraceOut, when non-nil, receives every span as JSONL (the
	// rtmap-serve -trace-out sink; cmd/rtmap-trace reads it).
	TraceOut io.Writer
	// EnablePprof mounts the stdlib net/http/pprof handlers under
	// /debug/pprof/ (off by default: profiling endpoints are an
	// operational opt-in).
	EnablePprof bool
	// Logf receives serving log lines; nil uses the standard logger.
	Logf func(format string, args ...any)

	// MaxQueueDelay arms load shedding: a request whose estimated queue
	// delay exceeds this bound is refused with HTTP 429 and a Retry-After
	// derived from the excess (bulk requests shed at half the bound).
	// Zero disables the operator bound; deadline-driven shedding — a
	// request that provably cannot meet its own deadline — is always on.
	MaxQueueDelay time.Duration
	// Autoscale starts the scheduler that grows and shrinks every
	// model's replica/stage placement from live queue signals, pricing
	// candidate configurations with the simulator's pipeline cost
	// model. Implies pinned placements (replica scaling needs a
	// placement to grow, so even 1-replica models are pinned).
	Autoscale bool
	// AutoscaleInterval is the scaler's evaluation tick (default 250ms).
	AutoscaleInterval time.Duration
	// DisableSLO ignores per-request class/deadline metadata and
	// disables shedding — the static, throughput-only configuration the
	// SLO benchmark compares against.
	DisableSLO bool
	// DrainTimeout bounds Shutdown's graceful drain (default 10s): past
	// it, lingering connections are force-closed and the fleet wind-down
	// is abandoned rather than hung. Requests arriving during the drain
	// are answered 503 + Retry-After. Negative disables the bound (wait
	// forever, the pre-PR-10 behavior).
	DrainTimeout time.Duration
	// WallScale dilates simulated device latency into wall time: each
	// batch (or pipeline stage) holds its device for at least
	// WallScale × the cost model's latency estimate. Zero disables
	// dilation (devices run as fast as the functional engine allows).
	// With dilation on, service time — and therefore queueing, deadline,
	// and autoscaling behaviour — is governed by the paper's cost model
	// rather than by host CPU speed, which is what the SLO benchmark and
	// capacity demos need.
	WallScale float64
}

func (o Options) withDefaults() Options {
	if o.Addr == "" {
		o.Addr = "127.0.0.1:8080"
	}
	if o.Devices <= 0 {
		o.Devices = 4
	}
	if o.MaxBatch <= 0 {
		o.MaxBatch = 8
	}
	if o.Window <= 0 {
		o.Window = 2 * time.Millisecond
	}
	if o.MaxModels <= 0 {
		o.MaxModels = 4
	}
	if o.Queue <= 0 {
		o.Queue = 64
	}
	if o.MaxInputs <= 0 {
		o.MaxInputs = 64
	}
	if o.DrainTimeout == 0 {
		o.DrainTimeout = 10 * time.Second
	}
	if o.AutoscaleInterval <= 0 {
		o.AutoscaleInterval = 250 * time.Millisecond
	}
	if o.Logf == nil {
		o.Logf = log.Printf
	}
	return o
}

// Server is the batched multi-tenant inference server: HTTP handlers on
// top of the model registry, the per-model micro-batchers, and the
// simulated device fleet.
type Server struct {
	opts     Options
	metrics  *Metrics
	families *metrics.Registry // everything GET /metrics renders
	tracer   *trace.Tracer
	fleet    *Fleet
	reg      *Registry
	mux      *http.ServeMux
	http     *http.Server
	ln       net.Listener
	draining atomic.Bool

	// shed is the admission policy /v1/infer consults before accepting
	// work (pure decision logic; the live delay estimate comes from the
	// target model's entry).
	shed dispatch.ShedPolicy
	// scaleStop terminates the autoscale loop; scaleDone is closed when
	// it exits. Both nil when Options.Autoscale is off.
	scaleStop chan struct{}
	scaleDone chan struct{}
	scaleOnce sync.Once

	// faultMu orders Serve's timer arm against Shutdown's stop (the two
	// run on different goroutines under rtmap.Serve).
	faultMu    sync.Mutex
	faultTimer *time.Timer
}

// New constructs a Server (not yet listening).
func New(opts Options) *Server {
	opts = opts.withDefaults()
	families := new(metrics.Registry)
	m := NewMetrics(families, opts.Devices)
	fleet := NewFleet(opts.Devices, opts.Queue, m)
	compile := core.DefaultConfig()
	if opts.Cache != nil {
		compile.Cache = opts.Cache
	}
	if opts.NoCache {
		compile.Cache = nil
	}
	reg := NewRegistry(compile, opts.MaxModels, fleet,
		BatchOptions{MaxBatch: opts.MaxBatch, Window: opts.Window, Queue: opts.Queue},
		opts.ShardStages, opts.Replicas)
	reg.pinned = opts.Autoscale
	collectModels(families, reg)
	collectFleet(families, fleet)
	metrics.RegisterRuntime(families)
	for name, path := range opts.ModelFiles {
		if err := reg.RegisterModelFile(name, path); err != nil {
			opts.Logf("ignoring model file %s: %v", path, err)
		}
	}

	tr := trace.New(opts.TraceBuf, opts.TraceSample, opts.TraceLayerSample)
	if opts.TraceOut != nil {
		tr.SetSink(opts.TraceOut)
	}
	fleet.tracer = tr
	fleet.WallScale = opts.WallScale

	s := &Server{opts: opts, metrics: m, families: families, tracer: tr, fleet: fleet, reg: reg, mux: http.NewServeMux()}
	s.shed = dispatch.ShedPolicy{MaxQueueDelay: opts.MaxQueueDelay}
	if opts.Autoscale {
		// Started here rather than in Serve: httptest and benchmark
		// embedders drive the mux directly and never call Serve.
		s.scaleStop = make(chan struct{})
		s.scaleDone = make(chan struct{})
		go s.scaleLoop()
	}
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /v1/models", s.handleModels)
	s.mux.HandleFunc("POST /v1/infer", s.handleInfer)
	s.mux.Handle("GET /metrics", families)
	s.mux.Handle("GET /debug/traces", tr)
	if opts.EnablePprof {
		s.mux.HandleFunc("/debug/pprof/", pprof.Index)
		s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	s.http = &http.Server{Handler: s.mux}
	return s
}

// Tracer exposes the span collector (tests; embedding servers that want
// to record their own spans).
func (s *Server) Tracer() *trace.Tracer { return s.tracer }

// Handler exposes the route table (httptest servers, embedding).
func (s *Server) Handler() http.Handler { return s.mux }

// Registry exposes the model registry (load generators warm models up
// front; tests inspect residency).
func (s *Server) Registry() *Registry { return s.reg }

// MetricFamilies lists every family GET /metrics exports (the docs gate).
func (s *Server) MetricFamilies() []*metrics.Family { return s.families.Families() }

// Listen binds the configured address and returns the resolved one.
func (s *Server) Listen() (net.Addr, error) {
	ln, err := net.Listen("tcp", s.opts.Addr)
	if err != nil {
		return nil, err
	}
	s.ln = ln
	return ln.Addr(), nil
}

// Serve blocks serving HTTP on the bound listener until Shutdown. When
// Options.FailAfter is set, the configured fault injection is armed here.
func (s *Server) Serve() error {
	if s.ln == nil {
		if _, err := s.Listen(); err != nil {
			return err
		}
	}
	if s.opts.FailAfter > 0 {
		dev := s.opts.FailDevice
		s.faultMu.Lock()
		if !s.draining.Load() { // don't arm under a concurrent Shutdown
			s.faultTimer = time.AfterFunc(s.opts.FailAfter, func() {
				if err := s.FailDevice(dev); err != nil {
					s.opts.Logf("fault injection: %v", err)
				} else {
					s.opts.Logf("fault injection: device %d marked dead after %s", dev, s.opts.FailAfter)
				}
			})
		}
		s.faultMu.Unlock()
	}
	s.opts.Logf("listening on %s", s.ln.Addr())
	if err := s.http.Serve(s.ln); err != nil && err != http.ErrServerClosed {
		return err
	}
	return nil
}

// FailDevice marks a fleet device dead immediately: batches queued on it
// (and sharded batches hopping to it mid-pipeline) requeue onto surviving
// replicas; the batch executing at the failure instant completes where it
// is. Exposed for tests and operational tooling; rtmap-serve's
// -fail-device arms it on a timer via Options.
func (s *Server) FailDevice(id int) error { return s.fleet.FailDevice(id) }

// Shutdown drains gracefully: new work is refused (in-flight HTTP
// requests finish; late arrivals get 503 + Retry-After), then the
// batchers and the device fleet wind down. The whole drain is bounded
// by Options.DrainTimeout (when ctx carries no earlier deadline): past
// the bound, lingering connections are force-closed and the fleet
// wind-down abandoned — a SIGTERM always terminates the process.
func (s *Server) Shutdown(ctx context.Context) error {
	s.stopBackground()
	if s.opts.DrainTimeout > 0 {
		if _, has := ctx.Deadline(); !has {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, s.opts.DrainTimeout)
			defer cancel()
		}
	}
	err := s.http.Shutdown(ctx)
	if err != nil {
		// The drain bound expired with connections still open: close them
		// hard. Their handlers' writes fail, but the process can exit.
		s.http.Close()
		err = fmt.Errorf("serve: drain timeout, connections force-closed: %w", err)
	}
	s.reg.Close()
	if cerr := s.fleet.CloseCtx(ctx); err == nil && cerr != nil {
		err = cerr
	}
	if ferr := s.tracer.Flush(); err == nil && ferr != nil {
		err = fmt.Errorf("serve: flushing trace sink: %w", ferr)
	}
	return err
}

// Abort hard-stops the server: every listener and connection closes
// immediately and nothing drains — the closest in-process stand-in for
// a process crash. The fleet and registry goroutines are deliberately
// left running (a crash does not unwind state either); the chaos
// harness uses Abort to kill cluster nodes mid-load.
func (s *Server) Abort() error {
	s.stopBackground()
	return s.http.Close()
}

// stopBackground is how both ways down begin: refuse new work, then stop
// the goroutines the server itself started — the scaler (waited for) and
// the armed fault injection.
func (s *Server) stopBackground() {
	s.draining.Store(true)
	if s.scaleStop != nil {
		s.scaleOnce.Do(func() { close(s.scaleStop) })
		<-s.scaleDone
	}
	s.faultMu.Lock()
	if s.faultTimer != nil {
		s.faultTimer.Stop()
	}
	s.faultMu.Unlock()
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		WriteJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// modelsResponse lists the servable zoo and the resident compiled models.
type modelsResponse struct {
	Available []availableModel `json:"available"`
	Loaded    []LoadedInfo     `json:"loaded"`
}

type availableModel struct {
	Model     string `json:"model"`
	InputNCHW [4]int `json:"input_nchw"`
}

func (s *Server) handleModels(w http.ResponseWriter, r *http.Request) {
	resp := modelsResponse{Loaded: s.reg.Loaded()}
	for _, name := range ZooModels() {
		sh, _ := ZooShape(name)
		resp.Available = append(resp.Available, availableModel{
			Model: name, InputNCHW: [4]int{sh.N, sh.C, sh.H, sh.W},
		})
	}
	// File-backed models report the shape discovered at their first
	// admission (zeros before).
	for _, fm := range s.reg.FileModels() {
		resp.Available = append(resp.Available, availableModel{
			Model: fm.Name, InputNCHW: [4]int{fm.Shape.N, fm.Shape.C, fm.Shape.H, fm.Shape.W},
		})
	}
	WriteJSON(w, http.StatusOK, resp)
}

// InferRequest is the /v1/infer request document as a client writes it
// (rtmap-load, the chaos driver and the benchmark marshal this struct).
// Each element of Inputs is one sample: the input tensor flattened in NCHW
// order (N=1). Omitted build parameters take the paper's defaults (4-bit
// activations, 0.8 sparsity, seed 1). The server never unmarshals a body
// into it: wire.go decodes the fields other than Inputs through
// encoding/json and parses the activations itself, into one flat slice.
type InferRequest struct {
	Model    string   `json:"model"`
	ActBits  int      `json:"act_bits,omitempty"`
	Sparsity *float64 `json:"sparsity,omitempty"`
	Seed     uint64   `json:"seed,omitempty"`
	// BitExact is decoded and ignored, kept because bodies in the wild (and
	// the benchmark's) carry the key: there is nothing to select, every
	// inference replays the compiled AP programs on the one engine,
	// bit-identical to model.ForwardInt.
	BitExact bool        `json:"bit_exact,omitempty"`
	Inputs   [][]float32 `json:"inputs"`
	// Class is the request's priority class ("interactive", "standard",
	// "bulk"; empty means standard). DeadlineMS is a soft deadline in
	// milliseconds from server receipt: a request that provably cannot
	// meet it is shed at admission (429), and one whose deadline passes
	// while queued is cancelled (503 kind "expired") rather than run
	// late. Zero means no deadline. The ClassHeader/DeadlineHeader HTTP
	// headers override these body fields.
	Class      string  `json:"class,omitempty"`
	DeadlineMS float64 `json:"deadline_ms,omitempty"`
}

// InferResult is the per-sample response entry.
type InferResult struct {
	Logits []int32   `json:"logits"`
	Argmax int       `json:"argmax"`
	Batch  BatchInfo `json:"batch"`
}

// InferResponse is the /v1/infer response body.
type InferResponse struct {
	Model   string        `json:"model"`
	Key     string        `json:"key"`
	Results []InferResult `json:"results"`
	WallMS  float64       `json:"wall_ms"`
}

// ErrorResponse is the error document both serving tiers answer with.
type ErrorResponse struct {
	Error string `json:"error"`
	// Kind classifies the failure for programmatic clients:
	// "bad_request", "not_found", "bad_model", "shed", "expired",
	// "unavailable", or "internal".
	Kind string `json:"kind,omitempty"`
	// Diagnostics carries the located static-verifier findings when a
	// model admission was rejected because its plans failed the audit.
	Diagnostics []verify.Diagnostic `json:"diagnostics,omitempty"`
}

// Error kinds, as carried in ErrorResponse.Kind.
const (
	KindBadRequest  = "bad_request"
	KindNotFound    = "not_found"
	KindBadModel    = "bad_model"
	KindShed        = "shed"
	KindExpired     = "expired"
	KindUnavailable = "unavailable"
	KindInternal    = "internal"
)

// TraceHeader is the HTTP header carrying a client-chosen trace ID:
// requests bearing it are always traced (IDs longer than 64 bytes are
// ignored); requests without it are traced 1-in-Options.TraceSample.
// Traced responses echo the ID back in the same header.
const TraceHeader = "X-Rtmap-Trace"

// ClassHeader and DeadlineHeader carry a request's SLO metadata as HTTP
// headers, overriding the body fields of the same meaning — load
// balancers and sidecars can set policy without touching the payload.
const (
	ClassHeader    = "X-Rtmap-Class"
	DeadlineHeader = "X-Rtmap-Deadline-Ms"
)

// MaxDeadlineMS caps client deadlines at 24h: beyond that the value is
// operationally meaningless, and the clamp keeps extreme floats (1e300)
// out of the float→Duration conversion, whose out-of-range behavior is
// implementation-defined.
const MaxDeadlineMS = 24 * 60 * 60 * 1000

// ResolveSLO resolves a request's priority class and absolute deadline
// (zero when none) from its headers and decoded body; headers win over
// body fields. Errors are client errors: the node answers them 400; the
// router routes on what comes back with one — standard class, no
// deadline — and leaves the 400 to the node.
func ResolveSLO(hdr http.Header, req *InferRequest, now time.Time) (dispatch.Class, time.Time, error) {
	cs := req.Class
	if h := hdr.Get(ClassHeader); h != "" {
		cs = h
	}
	cls, err := dispatch.ParseClass(cs)
	if err != nil {
		return dispatch.ClassStandard, time.Time{}, err
	}
	ms := req.DeadlineMS
	if h := hdr.Get(DeadlineHeader); h != "" {
		v, err := strconv.ParseFloat(h, 64)
		if err != nil {
			return dispatch.ClassStandard, time.Time{},
				fmt.Errorf("malformed %s header %q: %w", DeadlineHeader, h, err)
		}
		ms = v
	}
	if math.IsNaN(ms) || math.IsInf(ms, 0) || ms < 0 {
		return dispatch.ClassStandard, time.Time{},
			fmt.Errorf("deadline_ms %v out of range (want a finite, non-negative budget)", ms)
	}
	if ms == 0 {
		return cls, time.Time{}, nil
	}
	if ms > MaxDeadlineMS {
		ms = MaxDeadlineMS
	}
	return cls, now.Add(time.Duration(ms * float64(time.Millisecond))), nil
}

func (s *Server) handleInfer(w http.ResponseWriter, r *http.Request) {
	start := time.Now()

	// Resolve the request's trace identity up front so even failed
	// requests leave an http span behind.
	traceID := s.tracer.Intake(r.Header.Get(TraceHeader))
	traceLayers := traceID != "" && s.tracer.SampleLayers()
	model := ""
	httpSpan := func(detail string) {
		if traceID == "" {
			return
		}
		w.Header().Set(TraceHeader, traceID)
		s.tracer.Event(traceID, "http", model, start, time.Since(start), detail)
	}

	// SLO identity of the request: resolved after decode; failures before
	// that classify as standard class (the server cannot know better).
	cls := dispatch.ClassStandard
	var deadline time.Time
	var diags []verify.Diagnostic // a verifier's findings, for the error document

	// fail answers one classified error and settles the request's SLO
	// ledger row — every request lands in exactly one outcome, so
	// accepted + shed + expired + failed always equals submitted.
	fail := func(code int, kind string, format string, args ...any) {
		out := OutcomeFailed
		switch kind {
		case KindShed:
			out = OutcomeShed
		case KindExpired:
			out = OutcomeExpired
		}
		s.metrics.ObserveSLO(cls, out)
		s.metrics.ObserveRequest(time.Since(start), 0, true)
		httpSpan(fmt.Sprintf("error %d", code))
		WriteJSON(w, code, ErrorResponse{Error: fmt.Sprintf(format, args...), Kind: kind, Diagnostics: diags})
	}
	if s.draining.Load() {
		// Drain window: the listener is closing but this keep-alive
		// connection raced one more request in. Refuse it retryably
		// instead of queueing work the fleet wind-down would strand.
		w.Header().Set("Retry-After", "1")
		fail(http.StatusServiceUnavailable, KindUnavailable, "server draining")
		return
	}
	body, err := ReadBody(r.Body, r.ContentLength, maxBodyBytes)
	if err != nil {
		code := http.StatusBadRequest
		if errors.Is(err, ErrBodyTooLarge) {
			code = http.StatusRequestEntityTooLarge
		}
		fail(code, KindBadRequest, "reading request: %v", err)
		return
	}
	req, in, err := decodeInfer(body, s.opts.MaxInputs)
	if err != nil {
		fail(http.StatusBadRequest, KindBadRequest, "decoding request: %v", err)
		return
	}
	if !s.opts.DisableSLO {
		c, d, err := ResolveSLO(r.Header, &req, start)
		if err != nil {
			fail(http.StatusBadRequest, KindBadRequest, "%v", err)
			return
		}
		cls, deadline = c, d
	}
	if in.rows() == 0 {
		fail(http.StatusBadRequest, KindBadRequest, "no inputs")
		return
	}
	if in.rows() > s.opts.MaxInputs {
		// The parser stopped counting one row past the limit.
		fail(http.StatusBadRequest, KindBadRequest, "request carries more than %d inputs", s.opts.MaxInputs)
		return
	}
	spec := Spec{Model: req.Model, ActBits: req.ActBits, Sparsity: 0.8, Seed: req.Seed}
	model = spec.Model
	if spec.ActBits == 0 {
		spec.ActBits = 4
	}
	if spec.Seed == 0 {
		spec.Seed = 1
	}
	if req.Sparsity != nil {
		spec.Sparsity = *req.Sparsity
	}
	if spec.ActBits < 2 || spec.ActBits > 8 || spec.Sparsity < 0 || spec.Sparsity >= 1 {
		fail(http.StatusBadRequest, KindBadRequest, "build parameters out of range (act_bits 2..8, sparsity [0,1))")
		return
	}

	e, err := s.reg.Get(spec)
	if err != nil {
		// Panic-vs-error boundary: anything a client can cause is a 4xx.
		// Unknown names are 404; a model definition the client supplied
		// (malformed model file, or one whose plans fail static
		// verification) is 400; internal faults stay 500.
		code, kind := http.StatusInternalServerError, KindInternal
		switch {
		case !s.reg.Knows(spec.Model):
			code, kind = http.StatusNotFound, KindNotFound
		case IsBadModel(err):
			code, kind = http.StatusBadRequest, KindBadModel
		case errors.Is(err, errNoReplica):
			code, kind = http.StatusServiceUnavailable, KindUnavailable // no live capacity to place it
		}
		var ve *verify.Error
		if errors.As(err, &ve) {
			// Verifier rejections return the full located diagnostics so
			// the client sees exactly which plan op violated what.
			diags = ve.Diags
		}
		fail(code, kind, "%v", err)
		return
	}

	// Admission control: price the request's queue delay from the
	// model's live backlog and the measured per-item interval, and shed
	// (HTTP 429 + Retry-After) rather than queue work that would blow
	// the operator bound or provably miss its own deadline.
	if !s.opts.DisableSLO {
		depth := int(e.batcher.depth.Load()) + in.rows()
		if v := s.shed.Admit(cls, deadline, time.Now(), e.est.Estimate(depth)); !v.Accept {
			retry := int(math.Ceil(v.RetryAfter.Seconds()))
			if retry < 1 {
				retry = 1
			}
			w.Header().Set("Retry-After", strconv.Itoa(retry))
			s.tracer.Event(traceID, "shed", model, start, time.Since(start), v.Reason)
			fail(http.StatusTooManyRequests, KindShed, "shed: %s (retry after %ds)", v.Reason, retry)
			return
		}
	}

	shape := e.net.InputShape
	items := make([]*item, in.rows())
	tensors := make([]tensor.Float, in.rows()) // each aliases its row of the parsed matrix
	enq := time.Now()                          // a request's samples arrive together
	for i := range items {
		vals := in.row(i)
		if len(vals) != shape.Elems() {
			fail(http.StatusBadRequest, KindBadRequest, "input %d: %d values, %s wants %d (NCHW %v)",
				i, len(vals), spec.Model, shape.Elems(), shape)
			return
		}
		tensors[i] = tensor.Float{Shape: shape, Data: vals}
		items[i] = &item{
			in: &tensors[i], enq: enq, res: make(chan itemResult, 1),
			class: cls, deadline: deadline,
			trace: traceID, layers: traceLayers,
		}
	}

	// Submit with eviction retry: a concurrently evicted entry refuses
	// intake (the whole request — nothing was queued), so re-resolve the
	// model (recompiling if needed) and submit again.
	const maxReadmits = 4
	for readmits := 0; e.batcher.submit(items) != nil; {
		if readmits++; readmits > maxReadmits {
			fail(http.StatusServiceUnavailable, KindUnavailable, "model thrashing: evicted %d times during one request", readmits)
			return
		}
		if e, err = s.reg.Get(spec); err != nil {
			fail(http.StatusServiceUnavailable, KindUnavailable, "model evicted and re-admission failed: %v", err)
			return
		}
	}

	resp := InferResponse{Model: spec.Model, Key: e.key, Results: make([]InferResult, len(items))}
	for i, it := range items {
		res := <-it.res
		if res.err != nil {
			code, kind := http.StatusInternalServerError, KindInternal
			switch {
			case errors.Is(res.err, errNoReplica):
				code, kind = http.StatusServiceUnavailable, KindUnavailable // resident but its capacity is gone
			case errors.Is(res.err, errExpired):
				code, kind = http.StatusServiceUnavailable, KindExpired // cancelled, not executed late
			}
			fail(code, kind, "input %d: %v", i, res.err)
			return
		}
		resp.Results[i] = InferResult{Logits: res.logits, Argmax: res.argmax, Batch: res.info}
	}
	resp.WallMS = float64(time.Since(start).Nanoseconds()) / 1e6
	s.metrics.ObserveSLO(cls, OutcomeAccepted)
	if !deadline.IsZero() {
		// Deadline accounting uses the same clock domain the deadline was
		// minted in: a request is "met" when it finished inside its budget.
		result := &s.metrics.deadlineMet
		if time.Now().After(deadline) {
			result = &s.metrics.deadlineMissed
		}
		result[classIndex(cls)].Inc()
	}
	s.metrics.ObserveRequest(time.Since(start), len(items), false)
	httpSpan("")
	WriteJSON(w, http.StatusOK, resp)
}

// WriteJSON answers code with v as a JSON document.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}
