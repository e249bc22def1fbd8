package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// provenance says what produced a number, so that two documents can be
// told comparable or not.
type provenance struct {
	Commit     string `json:"commit"`
	Dirty      bool   `json:"dirty"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
}

func readProvenance() provenance {
	p := provenance{
		Commit: "unknown", GoVersion: runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), CPUModel: "unknown",
	}
	// Outside a git checkout (the driver's copy is not one) both stay as set.
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		p.Commit = strings.TrimSpace(string(out))
		status, err := exec.Command("git", "status", "--porcelain").Output()
		p.Dirty = err != nil || len(status) > 0
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				p.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return p
}

// series is one end-to-end metric over the repeated runs of a workload.
type series struct {
	Unit    string    `json:"unit"`
	Values  []float64 `json:"values"`
	Median  float64   `json:"median"`
	Spread  float64   `json:"spread"` // (Q3-Q1)/median over the runs; 0 for a single run
	Samples []int     `json:"samples"`
}

// workloadResult is everything a full run learned about one workload.
type workloadResult struct {
	Why       string            `json:"why"`
	WallS     float64           `json:"wall_s"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	EndToEnd  map[string]series `json:"end_to_end"`
	PerLayer  map[string]sample `json:"per_layer"`
}

// resultDoc is the one document a full run writes.
type resultDoc struct {
	HarnessVersion int                        `json:"harness_version"`
	Seed           uint64                     `json:"seed"`
	Repeat         int                        `json:"repeat"`
	Seconds        float64                    `json:"seconds"`
	SliceSeconds   float64                    `json:"slice_seconds"`
	Provenance     provenance                 `json:"provenance"`
	Workloads      map[string]*workloadResult `json:"workloads"`
}

// fullRun runs every workload in its own child process — so the shared
// compile cache, pooled arenas, GC state and VmHWM start clean — first
// `repeat` end-to-end runs on consecutive seeds, then one traced run,
// and merges the children's documents into <out>/result.json.
func fullRun(stdout, stderr io.Writer, seed uint64, seconds float64, repeat int, out string) error {
	self, err := os.Executable()
	if err != nil {
		return fmt.Errorf("locating this binary: %w", err)
	}
	doc := resultDoc{
		HarnessVersion: harnessVersion, Seed: seed, Repeat: repeat, Seconds: seconds,
		Provenance: readProvenance(), Workloads: map[string]*workloadResult{},
	}
	child := func(name string, seed uint64, trace int) (runDoc, error) {
		ctx, cancel := context.WithTimeout(context.Background(), runCap)
		defer cancel()
		cmd := exec.CommandContext(ctx, self, "--workload", name, "--seed", strconv.FormatUint(seed, 10),
			"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", strconv.Itoa(trace), "--out", out)
		cmd.Stdout, cmd.Stderr = io.Discard, stderr
		var rd runDoc
		if err := cmd.Run(); err != nil {
			return rd, fmt.Errorf("%s (seed %d, trace %d): %w", name, seed, trace, err)
		}
		err := readJSON(filepath.Join(out, fmt.Sprintf("%s.trace%d.json", name, trace)), &rd)
		return rd, err
	}
	for _, w := range workloadDefs {
		start := time.Now()
		res := &workloadResult{Why: w.Why, Correct: true, EndToEnd: map[string]series{}}
		for r := range max(repeat, 1) {
			rd, err := child(w.Name, seed+uint64(r), 0)
			if err != nil {
				return err
			}
			doc.SliceSeconds = rd.SliceSeconds
			res.Correct = res.Correct && rd.Correct
			res.Attempted += rd.Attempted
			res.Failed += rd.Failed
			for name, s := range rd.Metrics {
				sr := res.EndToEnd[name]
				sr.Unit = s.Unit
				sr.Values = append(sr.Values, s.Value)
				sr.Samples = append(sr.Samples, s.N)
				res.EndToEnd[name] = sr
			}
		}
		rd, err := child(w.Name, seed, 1)
		if err != nil {
			return err
		}
		res.Correct = res.Correct && rd.Correct
		res.PerLayer = rd.Metrics
		res.WallS = time.Since(start).Seconds()
		doc.Workloads[w.Name] = res

		fmt.Fprintf(stdout, "%s  (%d+1 runs, wall %.1f s, %d operations, %d failed)\n", w.Name, max(repeat, 1), res.WallS, res.Attempted, res.Failed)
		for _, d := range endToEnd {
			sr := res.EndToEnd[d.Name]
			sr.Median, sr.Spread = median(sr.Values), quartileSpread(sr.Values)
			res.EndToEnd[d.Name] = sr
			fmt.Fprintf(stdout, "  %-32s %14.6g %-10s spread %.3f of bound %.2f  n=%v\n", d.Name, sr.Median, sr.Unit, sr.Spread, d.Bound, sr.Samples)
		}
		for _, d := range perLayer {
			if s := res.PerLayer[d.Name]; s.N > 0 {
				fmt.Fprintf(stdout, "  %-32s %14.6g %-10s n=%d\n", d.Name, s.Value, s.Unit, s.N)
			}
		}
	}
	path := filepath.Join(out, "result.json")
	if err := writeJSON(path, doc); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote %s\n", path)
	for name, res := range doc.Workloads {
		if !res.Correct {
			return fmt.Errorf("%s: outputs differ from the integer reference (%d of %d operations failed)", name, res.Failed, res.Attempted)
		}
	}
	return nil
}
