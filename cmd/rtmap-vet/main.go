// Command rtmap-vet is the project's static-analysis gate. It has two
// modes, both run by CI:
//
//	rtmap-vet ./...                      # lint packages (exhaustive
//	                                     # enum switches, //rtmap:noalloc,
//	                                     # panic/error conventions, clock
//	                                     # and lock discipline)
//	rtmap-vet -plans                     # compile each small zoo model
//	                                     # once and run the admission
//	                                     # proof (plan audit and dataflow
//	                                     # check), the part-view
//	                                     # cross-check and the shard-plan
//	                                     # audits over it
//	rtmap-vet -plans -all                # include the full paper zoo
//	rtmap-vet -plans -model name=net.json  # prove a serialized model
//	rtmap-vet -plans -certs-out dir      # also write the certificates
//	rtmap-vet -json <mode>               # machine-readable output
//
// -dataflow, alone or with -plans, is the older spelling of -plans and
// prints the same report.
//
// With -json, each mode emits one JSON object on stdout — findings and
// diagnostics in deterministic order — instead of text. Exit status is
// unchanged: 0 when clean, 1 on findings or violations, 2 on usage
// errors.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"

	"rtmap/internal/core"
	"rtmap/internal/dataflow"
	"rtmap/internal/lint"
	"rtmap/internal/model"
	"rtmap/internal/sim"
	"rtmap/internal/verify"
)

// paperModels are the zoo's Table II networks: -plans proves them only
// under -all, which takes the sweep from about 3 s to about 9 s.
var paperModels = map[string]bool{"vgg9": true, "vgg11": true, "resnet18": true}

// shardCounts are the pipeline depths -plans certifies shard plans for
// (skipped for a model with fewer layers).
var shardCounts = []int{2, 4}

// modelFlags collects repeated -model name=path arguments.
type modelFlags []struct{ name, path string }

func (m *modelFlags) String() string { return fmt.Sprintf("%d models", len(*m)) }

func (m *modelFlags) Set(v string) error {
	name, path, ok := strings.Cut(v, "=")
	if !ok || name == "" || path == "" {
		return fmt.Errorf("want name=path, got %q", v)
	}
	*m = append(*m, struct{ name, path string }{name, path})
	return nil
}

// modelReport is one model's result in -json output. Diagnostics are in
// the verifier's canonical order; Error carries non-diagnostic failures
// (compile errors).
type modelReport struct {
	Name        string                `json:"name"`
	Programs    int                   `json:"programs"`
	PartViews   int                   `json:"part_views,omitempty"`
	Clean       bool                  `json:"clean"`
	Diagnostics []verify.Diagnostic   `json:"diagnostics,omitempty"`
	Error       string                `json:"error,omitempty"`
	Certificate *dataflow.Certificate `json:"certificate,omitempty"`
	Shards      []shardReport         `json:"shards,omitempty"`
}

// shardReport is one shard-plan certification result.
type shardReport struct {
	Stages      int                 `json:"stages"`
	Clean       bool                `json:"clean"`
	Diagnostics []verify.Diagnostic `json:"diagnostics,omitempty"`
	Error       string              `json:"error,omitempty"`
}

// vetReport is the top-level -json object of every mode.
type vetReport struct {
	Mode       string        `json:"mode"`
	Violations int           `json:"violations"`
	Findings   []lintFinding `json:"findings,omitempty"`
	Models     []modelReport `json:"models,omitempty"`
}

// lintFinding is one lint violation in -json output.
type lintFinding struct {
	File   string `json:"file"`
	Line   int    `json:"line"`
	Column int    `json:"column"`
	Rule   string `json:"rule"`
	Msg    string `json:"msg"`
}

func emitJSON(r vetReport) {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		log.Fatalf("encoding report: %v", err)
	}
	fmt.Println(string(data))
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("rtmap-vet: ")
	var (
		plans    = flag.Bool("plans", false, "prove compiled models instead of linting packages: the admission proof, part views and shard plans")
		dflow    = flag.Bool("dataflow", false, "older spelling of -plans")
		all      = flag.Bool("all", false, "with -plans: include the full paper zoo (vgg9, vgg11, resnet18)")
		jsonOut  = flag.Bool("json", false, "emit one machine-readable JSON object instead of text")
		certsOut = flag.String("certs-out", "", "with -plans: write each clean model's certificate into this directory")
		extras   modelFlags
	)
	flag.Var(&extras, "model", "with -plans: also prove a serialized model, as name=path (repeatable)")
	flag.Parse()

	if *plans || *dflow {
		os.Exit(runModels(*all, extras, *jsonOut, *certsOut))
	}
	patterns := flag.Args()
	if len(patterns) == 0 {
		flag.Usage()
		os.Exit(2)
	}
	os.Exit(runLint(patterns, *jsonOut))
}

func runLint(patterns []string, jsonOut bool) int {
	findings, err := lint.Run(patterns)
	if err != nil {
		log.Fatal(err)
	}
	if jsonOut {
		r := vetReport{Mode: "lint", Violations: len(findings)}
		for _, f := range findings {
			r.Findings = append(r.Findings, lintFinding{
				File: f.Pos.Filename, Line: f.Pos.Line, Column: f.Pos.Column,
				Rule: f.Rule, Msg: f.Msg,
			})
		}
		emitJSON(r)
	} else {
		for _, f := range findings {
			fmt.Println(f)
		}
		if len(findings) > 0 {
			fmt.Printf("rtmap-vet: %d finding(s)\n", len(findings))
		}
	}
	if len(findings) > 0 {
		return 1
	}
	return 0
}

// target is one network to audit, by name.
type target struct {
	name string
	net  *model.Network
}

// resolveTargets builds the sweep list: the zoo in name order (the paper
// models behind all) plus any -model files.
func resolveTargets(all bool, extras modelFlags) []target {
	var targets []target
	for _, name := range model.ZooNames() {
		if paperModels[name] && !all {
			continue
		}
		net, err := model.Build(name, model.DefaultConfig())
		if err != nil {
			log.Fatal(err)
		}
		targets = append(targets, target{name, net})
	}
	for _, e := range extras {
		net, err := model.LoadFile(e.path)
		if err != nil {
			log.Fatalf("-model %s: %v", e.name, err)
		}
		targets = append(targets, target{e.name, net})
	}
	return targets
}

// countPrograms sums the retained tile programs of an artifact.
func countPrograms(comp *core.Compiled) int {
	programs := 0
	for _, lp := range comp.Layers {
		for _, sp := range lp.StripPlans {
			programs += len(sp.Programs)
		}
	}
	return programs
}

// diagsOf extracts located diagnostics from a verification error;
// non-diagnostic errors come back in the string.
func diagsOf(err error) ([]verify.Diagnostic, string) {
	var ve *verify.Error
	if errors.As(err, &ve) {
		return ve.Diags, ""
	}
	return nil, err.Error()
}

// partShapes are the batches and worker counts whose task shapes pick
// the part counts -plans audits views of.
var partShapes = struct{ batches, workers []int }{[]int{1, 8}, []int{1, 2, 4, 8, 16}}

// auditPartViews audits directly, with ap.AuditPlan, every view the
// engine can cut comp's programs into: for each layer the part counts its
// task shapes pick over partShapes, with the following max-pool fused (a
// whole walk) and without (a stage cut before the pool), and 2, so every
// program of more than one channel has views audited. The admission proof
// proves the same views sound without building them (ap.AuditParts);
// this cross-checks that proof. views counts the views audited.
func auditPartViews(comp *core.Compiled, name string, views *int) error {
	var diags []verify.Diagnostic
	for i, lp := range comp.Layers {
		if lp.Class != core.ClassConv {
			continue
		}
		counts := map[int]bool{2: true}
		for _, n := range partShapes.batches {
			for _, w := range partShapes.workers {
				for _, pooled := range []bool{true, false} {
					sh, err := sim.LayerShape(comp, i, n, w, pooled)
					if err != nil {
						return err
					}
					counts[sh.Parts] = sh.Parts > 1
				}
			}
		}
		for g, ok := range counts {
			if !ok {
				continue
			}
			for s, sp := range lp.StripPlans {
				for t, tp := range sp.Programs {
					ref := verify.Ref{Model: name, Layer: lp.Index, LayerName: lp.Name, Strip: s, Tile: t}
					diags = append(diags, verify.CheckPartViews(ref, tp, g)...)
					if parts, err := tp.Parts(g); err == nil && len(parts) > 1 {
						*views += len(parts)
					}
				}
			}
		}
	}
	if len(diags) > 0 {
		e := &verify.Error{Diags: diags}
		e.Sort()
		return e
	}
	return nil
}

// runModels compiles each target once and runs over it the admission
// proof (dataflow.VerifyOrCertify: the plan audit and the dataflow
// check), the part-view cross-check and the shard-plan audits; with
// certsOut it writes each clean model's certificate there.
func runModels(all bool, extras modelFlags, jsonOut bool, certsOut string) int {
	if certsOut != "" {
		if err := os.MkdirAll(certsOut, 0o755); err != nil {
			log.Fatalf("-certs-out: %v", err)
		}
	}
	bad := 0
	report := vetReport{Mode: "plans"}
	for _, t := range resolveTargets(all, extras) {
		cfg := core.DefaultConfig()
		cfg.KeepPrograms = true
		comp, err := core.Compile(t.net, cfg)
		if err != nil {
			log.Fatalf("%s: compile: %v", t.name, err)
		}
		mr := modelReport{Name: t.name, Programs: countPrograms(comp), Clean: true}

		cert, _, err := dataflow.VerifyOrCertify(comp, nil)
		if err == nil {
			err = auditPartViews(comp, t.name, &mr.PartViews)
		}
		if err != nil {
			bad++
			mr.Clean = false
			mr.Diagnostics, mr.Error = diagsOf(err)
			report.Violations += len(mr.Diagnostics)
			if !jsonOut {
				for _, d := range mr.Diagnostics {
					fmt.Println(d)
				}
				if mr.Error != "" {
					fmt.Printf("%s: %s\n", t.name, mr.Error)
				} else {
					fmt.Printf("%s: %d violation(s) across %d programs\n", t.name, len(mr.Diagnostics), mr.Programs)
				}
			}
		} else {
			mr.Certificate = cert
			if certsOut != "" {
				data, err := cert.Encode()
				if err != nil {
					log.Fatalf("%s: %v", t.name, err)
				}
				path := filepath.Join(certsOut, t.name+".cert.json")
				if err := os.WriteFile(path, data, 0o644); err != nil {
					log.Fatalf("%s: writing certificate: %v", t.name, err)
				}
			}
		}

		// Shard certification runs even when the proof failed: a broken
		// transfer set is worth locating either way.
		rep := sim.Analyze(comp)
		for _, k := range shardCounts {
			if k > len(comp.Layers) {
				continue
			}
			sr := shardReport{Stages: k, Clean: true}
			pr, err := sim.AnalyzePipeline(comp, rep, k)
			if err != nil {
				sr.Clean, sr.Error = false, err.Error()
			} else if err := dataflow.AuditShard(comp, pr.Shard); err != nil {
				sr.Clean = false
				sr.Diagnostics, sr.Error = diagsOf(err)
				report.Violations += len(sr.Diagnostics)
			}
			if !sr.Clean {
				bad++
				if !jsonOut {
					for _, d := range sr.Diagnostics {
						fmt.Println(d)
					}
					fmt.Printf("%s: shard plan k=%d failed certification\n", t.name, k)
				}
			}
			mr.Shards = append(mr.Shards, sr)
		}

		if mr.Clean && !jsonOut {
			shards := make([]string, 0, len(mr.Shards))
			for _, sr := range mr.Shards {
				if sr.Clean {
					shards = append(shards, fmt.Sprintf("k=%d ok", sr.Stages))
				}
			}
			fmt.Printf("%s: certified %d programs and %d part views, artifact %s (%s)\n",
				t.name, mr.Programs, mr.PartViews, cert.Artifact[:12], strings.Join(shards, ", "))
		}
		report.Models = append(report.Models, mr)
	}
	if jsonOut {
		emitJSON(report)
	}
	if bad > 0 {
		return 1
	}
	return 0
}
