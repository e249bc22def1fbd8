// Command rtmap-compile runs the compilation flow on a network and prints
// the per-layer mapping and instruction statistics, with the widest column
// table of a layer's tile programs and the widest arena slot table the
// engine stores it in (temporaries share slots), then the task shape the
// engine gives each layer at batch 1 and batch 8 on 2 workers: row blocks
// × parts per program, and op dispatches per inference:
//
//	rtmap-compile -model resnet18                    # built-in model
//	rtmap-compile -model vgg9 -bits 8 -sparsity 0.9  # other Table II points
//	rtmap-compile -json net.json                     # serialized model
//	rtmap-compile -model vgg9 -save net.json         # export a model
//	rtmap-compile -model resnet18 -no-cse            # `unroll` configuration
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"

	"rtmap"
	"rtmap/internal/core"
	"rtmap/internal/model"
	"rtmap/internal/sim"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("rtmap-compile: ")
	if err := run(os.Args[1:], os.Stdout); errors.Is(err, errUsage) {
		os.Exit(2)
	} else if err != nil {
		log.Fatal(err)
	}
}

// errUsage reports that neither -model nor -json was given.
var errUsage = errors.New("no model given")

// run parses the command line args and prints the compiled network's
// tables to w.
func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("rtmap-compile", flag.ExitOnError)
	def := model.DefaultConfig()
	var (
		modelName = fs.String("model", "", "zoo model ("+strings.Join(model.ZooNames(), "|")+")")
		jsonPath  = fs.String("json", "", "load model from JSON instead")
		savePath  = fs.String("save", "", "serialize the model to JSON and exit")
		bits      = fs.Int("bits", def.ActBits, "activation precision")
		sparsity  = fs.Float64("sparsity", def.Sparsity, "ternary weight sparsity")
		seed      = fs.Uint64("seed", def.Seed, "weight seed")
		noCSE     = fs.Bool("no-cse", false, "disable CSE (the `unroll` configuration)")
		serial    = fs.Bool("serial", false, "disable the parallel lowering driver")
		noCache   = fs.Bool("no-cache", false, "disable the compiled-artifact cache")
	)
	_ = fs.Parse(args) // ExitOnError: a bad flag exits with status 2

	var net *rtmap.Network
	var err error
	switch {
	case *jsonPath != "":
		net, err = model.LoadFile(*jsonPath)
	case *modelName != "":
		net, err = model.Build(*modelName, model.Config{ActBits: *bits, Sparsity: *sparsity, Seed: *seed})
	default:
		fs.Usage()
		return errUsage
	}
	if err != nil {
		return err
	}
	if *savePath != "" {
		if err := net.SaveFile(*savePath); err != nil {
			return err
		}
		log.Printf("wrote %s", *savePath)
		return nil
	}

	cfg := rtmap.DefaultCompileConfig()
	cfg.CSE = !*noCSE
	cfg.Parallel = !*serial
	cfg.KeepPrograms = true // the slot tables come from the programs
	if *noCache {
		cfg.Cache = nil
	}
	comp, err := rtmap.Compile(net, cfg)
	if err != nil {
		return err
	}
	rep := sim.Analyze(comp)

	fmt.Fprintf(w, "%s  (sparsity %.2f, %d-bit activations, CSE %v)\n",
		net.Name, net.WeightSparsity(), *bits, cfg.CSE)
	fmt.Fprintf(w, "arrays: %d × 256×256   total adds/subs: %d   energy %.2f uJ   latency %.3f ms\n\n",
		comp.PoolArrays, comp.TotalAddSub(), rep.EnergyUJ(), rep.LatencyMS())
	fmt.Fprintf(w, "%-24s %6s %5s %5s×%-4s %5s %5s %5s %6s %9s %6s %6s %9s %7s\n",
		"layer", "P", "rowG", "strip", "og", "plane", "tiles", "accW", "adds", "accumOps", "cols", "slots", "energy-uJ", "lat-us")
	for i, p := range comp.Layers {
		if p.Class != core.ClassConv {
			continue
		}
		cols, slots, err := widest(p)
		if err != nil {
			return err
		}
		lr := rep.Layers[i]
		fmt.Fprintf(w, "%-24s %6d %5d %5d×%-4d %5d %5d %5d %6d %9d %6d %6d %9.3f %7.1f\n",
			p.Name, p.P, p.RowGroups, p.Strips, p.OutGroups, p.Planes, p.Tiles, p.AccWidth,
			p.CG.DFGOps, p.CG.AccumOps, cols, slots, lr.Energy.TotalPJ()/1e6, lr.LatencyNS/1e3)
	}
	return printShapes(w, comp)
}

// shapeWorkers is the pool the task shapes are printed for.
const shapeWorkers = 2

// printShapes prints each conv/linear layer's engine task shape at batch
// 1 and batch 8, and the op dispatches of one inference summed.
func printShapes(w io.Writer, comp *core.Compiled) error {
	batches := []int{1, 8}
	fmt.Fprintf(w, "\ntask shapes on %d workers: blocks×parts, op dispatches per inference\n", shapeWorkers)
	fmt.Fprintf(w, "%-24s", "layer")
	for _, n := range batches {
		fmt.Fprintf(w, " %10s %11s", fmt.Sprintf("b%d shape", n), "dispatches")
	}
	fmt.Fprintln(w)
	total := make([]float64, len(batches))
	for i, p := range comp.Layers {
		if p.Class != core.ClassConv {
			continue
		}
		fmt.Fprintf(w, "%-24s", p.Name)
		for k, n := range batches {
			sh, err := sim.LayerShape(comp, i, n, shapeWorkers, true)
			if err != nil {
				return err
			}
			per := float64(sh.Dispatches) / float64(n)
			total[k] += per
			fmt.Fprintf(w, " %10s %11.0f", fmt.Sprintf("%d×%d", sh.Blocks, sh.Parts), per)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "%-24s", "total")
	for k := range batches {
		fmt.Fprintf(w, " %10s %11.0f", "", total[k])
	}
	fmt.Fprintln(w)
	return nil
}

// widest returns the largest column table among a layer's tile programs
// and the largest slot table among their execution plans.
func widest(p *core.LayerPlan) (cols, slots int, err error) {
	for _, sp := range p.StripPlans {
		for _, tp := range sp.Programs {
			ep, err := tp.ExecPlan()
			if err != nil {
				return 0, 0, err
			}
			cols, slots = max(cols, len(tp.Prog.Cols)), max(slots, ep.Slots())
		}
	}
	return cols, slots, nil
}
