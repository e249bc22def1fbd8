// Command benchmark is rtmap's host-time benchmark: four workloads —
// the functional engine used as a stream and as a batch, the serving
// path saturated and paced — measured on the sandbox CPU's clock with
// WallScale 0, every output checked against the independent integer
// reference, every layer timed from outside through its public calls.
//
//	go run ./benchmark --workload NAME --seed N --seconds S --trace 0|1
//
// runs one workload and prints, as its last line, one JSON object with
// the end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1)
// that BENCHMARK.json declares. Without --workload it runs all four in
// fresh child processes, both ways, and writes one result document;
// --compare a.json b.json holds two such documents against each other.
// See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

// runCap is the longest one run of one workload may take.
const runCap = 180 * time.Second

// workloads binds the declared names to what runs.
var workloads = map[string]func(*env) error{
	"engine_stream":   engineWorkload{model: "vgg9", batch: 1, headline: "resnet18"}.run,
	"engine_batch":    engineWorkload{model: "vgg9", batch: 8}.run,
	"serve_saturated": serveWorkload{paced: false}.run,
	"serve_paced":     serveWorkload{paced: true}.run,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "run this one workload in this process (default: all four, each in a child)")
		seed    = fs.Uint64("seed", 1, "seed of the input pools and the request order")
		seconds = fs.Float64("seconds", runSeconds, "length of the measured (or traced) phase")
		traced  = fs.Int("trace", 0, "0: end-to-end metrics with tracing off; 1: per-layer metrics from the traced legs")
		out     = fs.String("out", ".bench_out", "directory for result documents and trace files")
		repeat  = fs.Int("repeat", 1, "full run: end-to-end runs per workload, seeds seed..seed+repeat-1")
		compare = fs.Bool("compare", false, "compare two result documents: --compare a.json b.json")
		spec    = fs.Bool("spec", false, "print BENCHMARK.json as the metric tables define it")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var err error
	switch {
	case *spec:
		_, err = stdout.Write(benchmarkSpec())
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark: --compare takes two result documents")
			return 2
		}
		var worse bool
		if worse, err = compareDocs(stdout, fs.Arg(0), fs.Arg(1)); err == nil && worse {
			return 1
		}
	case *name == "":
		err = fullRun(stdout, stderr, *seed, *seconds, *repeat, *out)
	default:
		err = singleRun(stdout, *name, *seed, *seconds, *traced == 1, *out)
	}
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	return 0
}

// runDoc is the result document of one run of one workload.
type runDoc struct {
	HarnessVersion int               `json:"harness_version"`
	Workload       string            `json:"workload"`
	Trace          int               `json:"trace"`
	Seed           uint64            `json:"seed"`
	Seconds        float64           `json:"seconds"`
	SliceSeconds   float64           `json:"slice_seconds"`
	Provenance     provenance        `json:"provenance"`
	Correct        bool              `json:"correct"`
	Attempted      int               `json:"attempted"`
	Failed         int               `json:"failed"`
	WallS          float64           `json:"wall_s"`
	Metrics        map[string]sample `json:"metrics"`
	// End-to-end runs: the measured window slice by slice as measured, the
	// host factor of its middle slice, and whether throughput and latency
	// were reported at quiet pace (CPU time always is).
	HostFactor float64    `json:"host_factor,omitempty"`
	QuietPace  bool       `json:"quiet_pace,omitempty"`
	Slices     []sliceRow `json:"slices,omitempty"`
}

// singleRun runs one declared workload in this process.
func singleRun(stdout io.Writer, name string, seed uint64, seconds float64, traced bool, out string) error {
	workload, ok := workloads[name]
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	return runOne(stdout, name, workload, seed, seconds, traced, out)
}

// runOne runs a workload, prints every metric by name with its unit,
// writes the run's document (and trace), and ends with the one-line JSON
// result.
func runOne(stdout io.Writer, name string, workload func(*env) error, seed uint64, seconds float64, traced bool, out string) error {
	if seconds <= 0 {
		return fmt.Errorf("--seconds %v: want a positive length", seconds)
	}
	start := time.Now()
	defs, kind := endToEnd, 0
	e := &env{seed: seed, seconds: seconds, traced: traced}
	if traced {
		defs, kind, e.rec = perLayer, 1, &recorder{}
	}
	e.m = newMetricSet(defs)
	if err := workload(e); err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	metrics, err := e.m.complete(!traced)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	wall := time.Since(start)

	doc := runDoc{
		HarnessVersion: harnessVersion, Workload: name, Trace: kind, Seed: seed,
		Seconds: seconds, SliceSeconds: e.sliceLen().Seconds(), Provenance: readProvenance(),
		Correct: e.failed == 0 && e.attempted > 0 && e.selfTestOK, Attempted: e.attempted, Failed: e.failed,
		WallS: wall.Seconds(), Metrics: metrics, HostFactor: e.hostFactor, QuietPace: e.cpuBound, Slices: e.slices,
	}
	for _, d := range defs {
		s := metrics[d.Name]
		fmt.Fprintf(stdout, "%-32s %14.6g %-10s n=%d\n", d.Name, s.Value, s.Unit, s.N)
	}
	fmt.Fprintf(stdout, "# %s trace=%d seed=%d: %d operations, %d failed, oracle self-test %v, host factor %.2f, wall %.1f s\n",
		name, kind, seed, e.attempted, e.failed, e.selfTestOK, e.hostFactor, wall.Seconds())
	if err := writeJSON(filepath.Join(out, fmt.Sprintf("%s.trace%d.json", name, kind)), doc); err != nil {
		return err
	}
	if traced {
		if err := e.rec.write(filepath.Join(out, name+".trace.jsonl")); err != nil {
			return err
		}
	}
	if wall > runCap {
		return fmt.Errorf("%s took %.0f s, over the %.0f s cap of one run", name, wall.Seconds(), runCap.Seconds())
	}

	// The contract's result line: exactly these keys, value and unit per metric.
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{doc.Correct, doc.Attempted, doc.Failed, map[string]value{}}
	for name, s := range metrics {
		line.Metrics[name] = value{s.Value, s.Unit}
	}
	return json.NewEncoder(stdout).Encode(line)
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return fmt.Errorf("encoding %s: %w", path, err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("creating %s: %w", filepath.Dir(path), err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return nil
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("decoding %s: %w", path, err)
	}
	return nil
}
