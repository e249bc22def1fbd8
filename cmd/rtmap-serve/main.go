// Command rtmap-serve runs the batched multi-tenant inference server: an
// HTTP/JSON front end over the compiler, the compiled-artifact cache, an
// work-conserving per-model micro-batcher, and a simulated fleet of AP devices
// priced by the paper's cost model.
//
//	rtmap-serve                                  # defaults: :8080, 4 devices
//	rtmap-serve -addr 127.0.0.1:0 -devices 8 -max-batch 16 -batch-window 1ms
//	rtmap-serve -devices 4 -shard-stages 4       # pipeline-parallel layer sharding
//	rtmap-serve -devices 4 -replicas 2           # data-parallel replication
//	rtmap-serve -replicas 2 -fail-device 0 -fail-after 2s   # failover demo
//	rtmap-serve -model mynet=net.json            # serve a JSON model file
//	rtmap-serve -trace-sample 16 -trace-out spans.jsonl -pprof   # observability on
//	rtmap-serve -max-queue-delay 50ms            # shed (HTTP 429) past this backlog
//	rtmap-serve -autoscale -scale-interval 250ms # grow/shrink replicas and stages from live load
//
// Endpoints: POST /v1/infer, GET /v1/models, GET /healthz, GET /metrics
// (Prometheus text format), GET /debug/traces (span ring buffer; requests
// carrying an X-Rtmap-Trace header are always traced), and /debug/pprof/
// behind -pprof. SIGINT/SIGTERM drain gracefully: in-flight requests
// finish, queued batches execute, then the process exits 0. The drain is
// bounded by -drain-timeout (default 10s) — past it, lingering work is
// abandoned and the process still exits, never hangs.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"rtmap"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("rtmap-serve: ")
	var (
		addr       = flag.String("addr", "127.0.0.1:8080", "listen address (port 0 picks a free port)")
		devices    = flag.Int("devices", 4, "simulated AP devices in the fleet")
		maxBatch   = flag.Int("max-batch", 8, "micro-batch size cap (1 disables coalescing)")
		window     = flag.Duration("batch-window", 2*time.Millisecond, "cap on how long a non-full batch is held while every device is busy (an idle device is dispatched to at once)")
		maxModels  = flag.Int("max-models", 4, "compiled models resident before LRU eviction")
		shards     = flag.Int("shard-stages", 0, "serve each model as a pipeline of N layer-range stages pinned to distinct devices (0/1 = the default one-stage pipeline, the whole model on one device; clamped to -devices)")
		replicas   = flag.Int("replicas", 1, "data-parallel copies of each model placed on disjoint devices; batches balance across live replicas and fail over on device loss")
		failDev    = flag.Int("fail-device", -1, "fault injection: mark this device dead -fail-after into the run (-1 disables)")
		failAfter  = flag.Duration("fail-after", 2*time.Second, "delay before the -fail-device fault fires")
		queue      = flag.Int("queue", 64, "per-model queue capacity in requests and per-device queue capacity in batches")
		maxInputs  = flag.Int("max-inputs", 64, "samples accepted per /v1/infer request")
		noCache    = flag.Bool("no-cache", false, "disable the compiled-artifact cache")
		traceBuf   = flag.Int("trace-buf", 4096, "span ring-buffer capacity behind /debug/traces")
		traceSamp  = flag.Int("trace-sample", 0, "trace 1-in-N requests without an X-Rtmap-Trace header (0 = header-only tracing)")
		traceLayer = flag.Int("trace-layer-sample", 8, "record per-layer execution spans for 1-in-N traced requests (0 disables layer spans)")
		traceOut   = flag.String("trace-out", "", "append every span as a JSON line to this file (rtmap-trace -in reads it)")
		pprofOn    = flag.Bool("pprof", false, "mount the net/http/pprof profiling handlers under /debug/pprof/")
		maxQDelay  = flag.Duration("max-queue-delay", 0, "shed requests (HTTP 429 + Retry-After) when the estimated queue delay exceeds this bound (0 = deadline-driven shedding only)")
		autoscale  = flag.Bool("autoscale", false, "resize each model's replicas and pipeline stages from live queue depth (bounded by -devices and -shard-stages)")
		scaleEvery = flag.Duration("scale-interval", 250*time.Millisecond, "autoscaler evaluation period (with -autoscale)")
		wallScale  = flag.Float64("wall-scale", 0, "dilate simulated device latency into wall time by this factor, so service time follows the cost model instead of host speed (0 disables)")
		drainT     = flag.Duration("drain-timeout", 10*time.Second, "bound on the SIGTERM graceful drain: past it, lingering connections are force-closed and the process exits anyway (negative = wait forever)")
	)
	modelFiles := map[string]string{}
	flag.Func("model", "serve a JSON model file as `name=path` (repeatable; decoded at admission, malformed files answer HTTP 400)", func(v string) error {
		name, path, ok := strings.Cut(v, "=")
		if !ok {
			path = v
			name = strings.TrimSuffix(filepath.Base(path), ".json")
		}
		if name == "" || path == "" {
			return fmt.Errorf("want name=path, got %q", v)
		}
		modelFiles[name] = path
		return nil
	})
	flag.Parse()

	fa := time.Duration(0)
	if *failDev >= 0 {
		if *failDev >= *devices {
			log.Fatalf("-fail-device %d out of range: the fleet has devices 0..%d", *failDev, *devices-1)
		}
		fa = *failAfter
		if fa <= 0 {
			fa = time.Millisecond // "no delay": fire as soon as the server is up
		}
	}

	var traceSink *os.File
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			log.Fatalf("-trace-out: %v", err)
		}
		traceSink = f
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	opts := rtmap.ServeOptions{
		Addr:              *addr,
		Devices:           *devices,
		MaxBatch:          *maxBatch,
		Window:            *window,
		MaxModels:         *maxModels,
		ShardStages:       *shards,
		Replicas:          *replicas,
		FailDevice:        *failDev,
		FailAfter:         fa,
		ModelFiles:        modelFiles,
		Queue:             *queue,
		MaxInputs:         *maxInputs,
		NoCache:           *noCache,
		TraceBuf:          *traceBuf,
		TraceSample:       *traceSamp,
		TraceLayerSample:  *traceLayer,
		EnablePprof:       *pprofOn,
		MaxQueueDelay:     *maxQDelay,
		Autoscale:         *autoscale,
		AutoscaleInterval: *scaleEvery,
		WallScale:         *wallScale,
		DrainTimeout:      *drainT,
		Logf:              log.Printf,
	}
	if traceSink != nil {
		opts.TraceOut = traceSink
	}
	err := rtmap.Serve(ctx, opts)
	if traceSink != nil {
		// The server flushed its buffered span encoder during Shutdown;
		// close surfaces any write error the flush could not.
		if cerr := traceSink.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	if err != nil {
		log.Fatal(err)
	}
	log.Print("drained cleanly")
}
