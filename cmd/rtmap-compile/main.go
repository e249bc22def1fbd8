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
	"flag"
	"fmt"
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
	def := model.DefaultConfig()
	var (
		modelName = flag.String("model", "", "zoo model ("+strings.Join(model.ZooNames(), "|")+")")
		jsonPath  = flag.String("json", "", "load model from JSON instead")
		savePath  = flag.String("save", "", "serialize the model to JSON and exit")
		bits      = flag.Int("bits", def.ActBits, "activation precision")
		sparsity  = flag.Float64("sparsity", def.Sparsity, "ternary weight sparsity")
		seed      = flag.Uint64("seed", def.Seed, "weight seed")
		noCSE     = flag.Bool("no-cse", false, "disable CSE (the `unroll` configuration)")
		serial    = flag.Bool("serial", false, "disable the parallel lowering driver")
		noCache   = flag.Bool("no-cache", false, "disable the compiled-artifact cache")
	)
	flag.Parse()

	var net *rtmap.Network
	var err error
	switch {
	case *jsonPath != "":
		net, err = model.LoadFile(*jsonPath)
	case *modelName != "":
		net, err = model.Build(*modelName, model.Config{ActBits: *bits, Sparsity: *sparsity, Seed: *seed})
	default:
		flag.Usage()
		os.Exit(2)
	}
	if err != nil {
		log.Fatal(err)
	}
	if *savePath != "" {
		if err := net.SaveFile(*savePath); err != nil {
			log.Fatal(err)
		}
		log.Printf("wrote %s", *savePath)
		return
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
		log.Fatal(err)
	}
	rep := sim.Analyze(comp)

	fmt.Printf("%s  (sparsity %.2f, %d-bit activations, CSE %v)\n",
		net.Name, net.WeightSparsity(), *bits, cfg.CSE)
	fmt.Printf("arrays: %d × 256×256   total adds/subs: %d   energy %.2f uJ   latency %.3f ms\n\n",
		comp.PoolArrays, comp.TotalAddSub(), rep.EnergyUJ(), rep.LatencyMS())
	fmt.Printf("%-24s %6s %5s %5s×%-4s %5s %5s %5s %6s %9s %6s %6s %9s %7s\n",
		"layer", "P", "rowG", "strip", "og", "plane", "tiles", "accW", "adds", "accumOps", "cols", "slots", "energy-uJ", "lat-us")
	for i, p := range comp.Layers {
		if p.Class != core.ClassConv {
			continue
		}
		cols, slots, err := widest(p)
		if err != nil {
			log.Fatal(err)
		}
		lr := rep.Layers[i]
		fmt.Printf("%-24s %6d %5d %5d×%-4d %5d %5d %5d %6d %9d %6d %6d %9.3f %7.1f\n",
			p.Name, p.P, p.RowGroups, p.Strips, p.OutGroups, p.Planes, p.Tiles, p.AccWidth,
			p.CG.DFGOps, p.CG.AccumOps, cols, slots, lr.Energy.TotalPJ()/1e6, lr.LatencyNS/1e3)
	}
	if err := printShapes(comp); err != nil {
		log.Fatal(err)
	}
}

// shapeWorkers is the pool the task shapes are printed for.
const shapeWorkers = 2

// printShapes prints each conv/linear layer's engine task shape at batch
// 1 and batch 8, and the op dispatches of one inference summed.
func printShapes(comp *core.Compiled) error {
	batches := []int{1, 8}
	fmt.Printf("\ntask shapes on %d workers: blocks×parts, op dispatches per inference\n", shapeWorkers)
	fmt.Printf("%-24s", "layer")
	for _, n := range batches {
		fmt.Printf(" %10s %11s", fmt.Sprintf("b%d shape", n), "dispatches")
	}
	fmt.Println()
	total := make([]float64, len(batches))
	for i, p := range comp.Layers {
		if p.Class != core.ClassConv {
			continue
		}
		fmt.Printf("%-24s", p.Name)
		for k, n := range batches {
			sh, err := sim.LayerShape(comp, i, n, shapeWorkers)
			if err != nil {
				return err
			}
			per := float64(sh.Dispatches) / float64(n)
			total[k] += per
			fmt.Printf(" %10s %11.0f", fmt.Sprintf("%d×%d", sh.Blocks, sh.Parts), per)
		}
		fmt.Println()
	}
	fmt.Printf("%-24s", "total")
	for k := range batches {
		fmt.Printf(" %10s %11.0f", "", total[k])
	}
	fmt.Println()
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
