// Command rtmap-bench regenerates the paper's evaluation artifacts:
//
//	rtmap-bench -table2            # Table II (all systems and networks)
//	rtmap-bench -table2 -net vgg9  # one network section
//	rtmap-bench -fig4              # both panels of Fig. 4 (ResNet-18)
//	rtmap-bench -ledger            # every paper number beside its reproduction
//	rtmap-bench -cse -json -out DIR                     # BENCH_cse.json (§V-A, from the ledger)
//	rtmap-bench -shards 8          # pipeline-sharding throughput frontier
//	rtmap-bench -shards 6 -net tinycnn -json -out DIR   # BENCH_shards.json
//	rtmap-bench -replicas 4        # data-parallel replication frontier
//	rtmap-bench -replicas 4 -json -out DIR              # BENCH_replicas.json
//	rtmap-bench -slo               # SLO scheduler vs static config: goodput under mixed deadlines
//	rtmap-bench -slo -json -out DIR                     # BENCH_slo.json
//	rtmap-bench -cluster           # router tier: 1-node vs 3-node throughput + node-kill recovery
//	rtmap-bench -cluster -json -out DIR                 # BENCH_cluster.json
//
// Outputs are printed and, with -out DIR, also written as TSV files.
// With -json, results are emitted as one machine-readable JSON document
// on stdout (and, combined with -out, as BENCH_<section>.json files) for
// the performance-trajectory tooling.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"path/filepath"
	"time"

	"rtmap"
	"rtmap/internal/model"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("rtmap-bench: ")

	var (
		table2    = flag.Bool("table2", false, "regenerate Table II")
		fig4      = flag.Bool("fig4", false, "regenerate Fig. 4 (ResNet-18 per-layer)")
		ledger    = flag.Bool("ledger", false, "measure every paper number the tree reproduces (Table II, Eq. (1), §V) and print the reproduction ledger")
		cse       = flag.Bool("cse", false, "report the ledger's average CSE add/sub reduction (§V-A)")
		shards    = flag.Int("shards", 0, "sweep pipeline sharding from 1 to N stages and report the stage-count/throughput frontier")
		replicas  = flag.Int("replicas", 0, "sweep data-parallel replication from 1 to N replicas and report the aggregate-throughput frontier")
		sloB      = flag.Bool("slo", false, "drive a mixed-deadline workload against a static configuration and the SLO scheduler (deadline-aware batching, shedding, autoscaling) at the same offered load and compare goodput")
		sloDur    = flag.Duration("slo-duration", 3*time.Second, "measurement window per -slo arm")
		clusterB  = flag.Bool("cluster", false, "measure the router tier: aggregate throughput at 1 vs 3 rtmap-serve nodes under identical dilated load, then a mid-load node kill timing failover detection")
		clusterD  = flag.Duration("cluster-duration", 3*time.Second, "measurement window per -cluster arm")
		netFilter = flag.String("net", "", "restrict Table II to one network (resnet18|vgg9|vgg11); also selects the -shards model (default resnet18; tiny models allowed) and the -replicas models (default tinycnn+resnet18)")
		samples   = flag.Int("samples", 0, "accuracy evaluation samples (0 = skip accuracy columns)")
		seed      = flag.Uint64("seed", 1, "synthetic weight/data seed")
		outDir    = flag.String("out", "", "directory for TSV/JSON artifacts")
		jsonOut   = flag.Bool("json", false, "emit machine-readable results on stdout")
		quiet     = flag.Bool("q", false, "suppress progress lines")
		noCache   = flag.Bool("no-cache", false, "disable the compiled-artifact cache")
	)
	flag.Parse()
	if !*table2 && !*fig4 && !*ledger && !*cse && *shards <= 0 && *replicas <= 0 && !*sloB && !*clusterB {
		flag.Usage()
		os.Exit(2)
	}
	progress := func(s string) {
		if !*quiet {
			log.Print(s)
		}
	}
	// zooNet builds a sweep network at the default build point and -seed.
	zooNet := func(name string) *rtmap.Network {
		cfg := model.DefaultConfig()
		cfg.Seed = *seed
		net, err := model.Build(name, cfg)
		if err != nil {
			log.Fatal(err)
		}
		return net
	}
	save := func(name, content string) {
		if *outDir == "" {
			return
		}
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			log.Fatal(err)
		}
		path := filepath.Join(*outDir, name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			log.Fatal(err)
		}
		log.Printf("wrote %s", path)
	}
	// jsonDoc accumulates one section per key; emitted at the end when
	// -json is set, and as BENCH_<section>.json per section with -out.
	jsonDoc := map[string]any{}
	addJSON := func(section string, v any) {
		if !*jsonOut {
			return
		}
		jsonDoc[section] = v
		b, err := json.MarshalIndent(v, "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		save("BENCH_"+section+".json", string(b)+"\n")
	}

	if *table2 {
		opt := rtmap.DefaultTable2Options()
		opt.Seed = *seed
		opt.AccuracySamples = *samples
		opt.Progress = progress
		if *netFilter != "" {
			opt.Networks = []string{*netFilter}
		}
		opt.NoCache = *noCache
		res, err := rtmap.Table2(opt)
		if err != nil {
			log.Fatal(err)
		}
		if !*jsonOut {
			fmt.Println("\nTable II — accuracy, energy, latency, arrays, operations")
			fmt.Print(res.Text())
		}
		save("table2.tsv", res.TSV())
		addJSON("table2", table2JSON(res))
	}

	if *fig4 {
		opt := rtmap.DefaultFigure4Options()
		opt.Seed = *seed
		opt.Progress = progress
		opt.NoCache = *noCache
		res, err := rtmap.Figure4(opt)
		if err != nil {
			log.Fatal(err)
		}
		if !*jsonOut {
			fmt.Println()
			fmt.Print(res.Energy.Render())
			fmt.Println()
			fmt.Print(res.Latency.Render())
		}
		save("fig4_energy.tsv", res.Energy.TSV())
		save("fig4_latency.tsv", res.Latency.TSV())
		addJSON("fig4", map[string]any{"energy": res.Energy, "latency": res.Latency})
	}

	if *ledger || *cse {
		progress("measuring the reproduction ledger")
		l, err := rtmap.Ledger(*seed, compileConfig(*noCache).Cache)
		if err != nil {
			log.Fatal(err)
		}
		if *ledger {
			if !*jsonOut {
				fmt.Println("\nReproduction ledger — paper vs reproduced")
				fmt.Print(l.Markdown())
			}
			addJSON("ledger", l)
		}
		if *cse {
			for _, r := range l {
				if r.ID != "cse.average" {
					continue
				}
				if !*jsonOut {
					fmt.Printf("average CSE add/sub reduction: %.1f%% (paper: %.0f%%)\n", r.Got, r.Paper)
				}
				addJSON("cse", map[string]any{"avg_reduction_pct": r.Got, "paper_pct": r.Paper})
			}
		}
	}

	if *shards > 0 {
		name := *netFilter
		if name == "" {
			name = "resnet18"
		}
		net := zooNet(name)
		progress(fmt.Sprintf("compiling %s for the shard sweep", name))
		rows, err := shardSweep(net, *shards, compileConfig(*noCache))
		if err != nil {
			log.Fatal(err)
		}
		if !*jsonOut {
			fmt.Printf("\nPipeline-sharding frontier — %s (steady-state throughput vs stage count)\n", name)
			fmt.Printf("%-7s %-14s %-16s %-14s %-12s %s\n",
				"stages", "bottleneck_ms", "infer/s(steady)", "fill_ms", "xfer_kbit", "speedup")
			for _, r := range rows {
				fmt.Printf("%-7d %-14.4f %-16.1f %-14.4f %-12.1f %.2fx\n",
					r.Stages, r.BottleneckNS/1e6, r.SteadyInfersPerSec,
					r.FillNS/1e6, float64(r.XferBits)/1e3, r.Speedup)
			}
		}
		addJSON("shards", map[string]any{"network": name, "frontier": rows})
	}

	if *sloB {
		sec, err := sloSweep(*seed, *sloDur, *noCache, progress)
		if err != nil {
			log.Fatal(err)
		}
		if !*jsonOut {
			fmt.Printf("\nSLO scheduling — %s (mixed-deadline open loop at %.0f req/s, %.1fs per arm)\n",
				sec.Network, sec.OfferedPerSec, sec.DurationS)
			printArm := func(a sloArm) {
				fmt.Printf("%-45s goodput %6.1f req/s  (ok %d  shed %d  expired %d  failed %d of %d; replicas %d)\n",
					a.Config+":", a.GoodputPerSec, a.Accepted, a.Shed, a.Expired, a.Failed, a.Sent, a.FinalReplicas)
			}
			printArm(sec.Static)
			printArm(sec.SLO)
			fmt.Printf("goodput ratio (slo/static): %.2fx   bit-exact checks: %d, violations: %d\n",
				sec.GoodputRatio, sec.BitExactChecked, sec.BitExactViolations)
		}
		addJSON("slo", sec)
	}

	if *clusterB {
		sec, err := clusterSweep(*clusterD, progress)
		if err != nil {
			log.Fatal(err)
		}
		if !*jsonOut {
			fmt.Printf("\nCluster serving — %s × %d variants, %d pinned workers each, WallScale %.0f\n",
				sec.Network, sec.Variants, sec.Workers, sec.WallScale)
			for _, a := range sec.Arms {
				fmt.Printf("%d node(s): %8.1f ok/s   (sent %d  ok %d  rejected %d  errors %d  mismatches %d)\n",
					a.Nodes, a.OKPerSec, a.Sent, a.OK, a.Rejected, a.Errors, a.Mismatches)
			}
			r := sec.Recovery
			fmt.Printf("aggregate scaling 3v1: %.2fx\n", sec.Scaling3v1)
			fmt.Printf("node kill (%s): down in %.1fms = %d completed health cycle(s) @ %.0fms; across the kill: ok %d errors %d mismatches %d\n",
				r.Victim, r.DetectMS, r.DetectCycles, r.HealthIntervalMS,
				r.AcrossKill.OK, r.AcrossKill.Errors, r.AcrossKill.Mismatches)
		}
		addJSON("cluster", sec)
	}

	if *replicas > 0 {
		nets := []string{"tinycnn", "resnet18"}
		if *netFilter != "" {
			nets = []string{*netFilter}
		}
		var sections []replicaSection
		for _, name := range nets {
			net := zooNet(name)
			progress(fmt.Sprintf("compiling %s for the replica sweep", name))
			rows, err := replicaSweep(net, *replicas, compileConfig(*noCache))
			if err != nil {
				log.Fatal(err)
			}
			sections = append(sections, replicaSection{Network: name, Frontier: rows})
			if !*jsonOut {
				fmt.Printf("\nData-parallel replication frontier — %s (aggregate steady-state throughput vs replica count)\n", name)
				fmt.Printf("%-9s %-14s %-18s %-16s %s\n",
					"replicas", "steady_ns", "infer/s(aggregate)", "batch64_ms", "speedup")
				for _, r := range rows {
					fmt.Printf("%-9d %-14.2f %-18.1f %-16.4f %.2fx\n",
						r.Replicas, r.SteadyNS, r.AggInfersPerSec, r.Batch64LatencyNS/1e6, r.Speedup)
				}
			}
		}
		addJSON("replicas", map[string]any{"networks": sections})
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(jsonDoc); err != nil {
			log.Fatal(err)
		}
	}

	if !*noCache {
		progress(rtmap.SharedCompileCache().String())
	}
}

// table2JSON renders Table II rows as JSON-safe maps: the table uses NaN
// for not-applicable cells, which encoding/json rejects, so those become
// null.
func table2JSON(res *rtmap.Table2Result) []map[string]any {
	num := func(v float64) any {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil
		}
		return v
	}
	rows := make([]map[string]any, len(res.Rows))
	for i, r := range res.Rows {
		rows[i] = map[string]any{
			"network":       r.Network,
			"system":        r.System,
			"sparsity":      num(r.Sparsity),
			"acc_fp":        num(r.AccFP),
			"acc_4b":        num(r.Acc4),
			"acc_8b":        num(r.Acc8),
			"energy_4b_uj":  num(r.Energy4UJ),
			"energy_8b_uj":  num(r.Energy8UJ),
			"latency_4b_ms": num(r.Latency4MS),
			"latency_8b_ms": num(r.Latency8MS),
			"arrays":        r.Arrays,
			"adds_unroll_k": num(r.AddsUnrollK),
			"adds_cse_k":    num(r.AddsCSEK),
		}
	}
	return rows
}

// compileConfig resolves the compile configuration for the direct
// (ledger/shards/replicas) paths; they reuse the shared cache
// unless -no-cache is given.
func compileConfig(noCache bool) rtmap.CompileConfig {
	return rtmap.CompileConfigWithCache(nil, noCache)
}

// shardRow is one point of the stage-count/throughput frontier.
type shardRow struct {
	Stages             int     `json:"stages"`
	BottleneckNS       float64 `json:"bottleneck_ns"`
	SteadyInfersPerSec float64 `json:"steady_infer_per_s"`
	FillNS             float64 `json:"fill_ns"`
	XferBits           int64   `json:"xfer_bits"`
	// Speedup is steady-state throughput relative to the unsharded
	// (one-stage) pipeline.
	Speedup float64 `json:"speedup_vs_unsharded"`
}

// shardSweep compiles the network once and prices its pipeline
// sharding at every stage count from 1 to maxK.
func shardSweep(net *rtmap.Network, maxK int, cfg rtmap.CompileConfig) ([]shardRow, error) {
	comp, err := rtmap.Compile(net, cfg)
	if err != nil {
		return nil, err
	}
	rep := rtmap.Analyze(comp)
	var rows []shardRow
	var base float64
	for k := 1; k <= maxK; k++ {
		pr, err := rtmap.AnalyzePipeline(comp, rep, k)
		if err != nil {
			return nil, err
		}
		var xfer int64
		for _, st := range pr.Shard.Stages {
			xfer += st.XferBits
		}
		row := shardRow{
			Stages:             len(pr.Stages),
			BottleneckNS:       pr.BottleneckNS,
			SteadyInfersPerSec: pr.Batch(1, 1).InfersPerSec(),
			FillNS:             pr.FillNS,
			XferBits:           xfer,
		}
		if k == 1 {
			base = pr.BottleneckNS
		}
		if pr.BottleneckNS > 0 {
			row.Speedup = base / pr.BottleneckNS
		}
		rows = append(rows, row)
		if len(pr.Stages) < k {
			break // clamped: the network has no more layers to split
		}
	}
	return rows, nil
}

// replicaSection groups one network's replication frontier in the JSON
// artifact.
type replicaSection struct {
	Network  string       `json:"network"`
	Frontier []replicaRow `json:"frontier"`
}

// replicaRow is one point of the replica-count/throughput frontier.
type replicaRow struct {
	Replicas int `json:"replicas"`
	// SteadyNS is the aggregate steady-state inter-sample interval of the
	// replica group; AggInfersPerSec is its reciprocal throughput.
	SteadyNS        float64 `json:"steady_ns"`
	AggInfersPerSec float64 `json:"agg_infer_per_s"`
	// Batch64LatencyNS is the completion time of a 64-sample batch
	// load-balanced across the replicas.
	Batch64LatencyNS float64 `json:"batch64_latency_ns"`
	// Speedup is aggregate throughput relative to one replica.
	Speedup float64 `json:"speedup_vs_single"`
}

// replicaSweep compiles the network once and prices data-parallel
// replication of its one-stage pipeline at every replica count from 1 to
// maxR (rtmap.PipelineReport.Batch).
func replicaSweep(net *rtmap.Network, maxR int, cfg rtmap.CompileConfig) ([]replicaRow, error) {
	comp, err := rtmap.Compile(net, cfg)
	if err != nil {
		return nil, err
	}
	pr, err := rtmap.AnalyzePipeline(comp, rtmap.Analyze(comp), 1)
	if err != nil {
		return nil, err
	}
	var rows []replicaRow
	var base float64
	for r := 1; r <= maxR; r++ {
		br := pr.Batch(64, r)
		row := replicaRow{
			Replicas:         r,
			SteadyNS:         br.SteadyNS,
			AggInfersPerSec:  br.InfersPerSec(),
			Batch64LatencyNS: br.LatencyNS,
		}
		if r == 1 {
			base = row.AggInfersPerSec
		}
		if base > 0 {
			row.Speedup = row.AggInfersPerSec / base
		}
		rows = append(rows, row)
	}
	return rows, nil
}
