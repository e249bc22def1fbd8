// Write-endurance and data-movement analysis (§V-C of the paper), per
// network: writes per inference to the busiest CAM cell, the interval
// between its rewrites, the lifetime that follows, and the data-movement
// energy shares of RTM-AP and the crossbar baseline. The paper's values
// and the ResNet-18 comparison are the endurance.* and movement.* rows of
// the reproduction ledger (go run ./cmd/rtmap-bench -ledger).
//
//	go run ./examples/endurance
package main

import (
	"fmt"
	"log"

	"rtmap"
	"rtmap/internal/xbar"
)

func main() {
	log.SetFlags(0)
	specs := []struct {
		name     string
		build    func(rtmap.ModelConfig) *rtmap.Network
		sparsity float64
	}{
		{"VGG-9/CIFAR10", rtmap.BuildVGG9, 0.85},
		{"VGG-11/CIFAR10", rtmap.BuildVGG11, 0.85},
		{"ResNet-18/ImageNet", rtmap.BuildResNet18, 0.8},
	}

	fmt.Printf("%-20s %14s %16s %14s %12s %12s\n",
		"network", "writes/inf", "rewrite (ns)", "lifetime (y)", "move RTM", "move xbar")
	for _, s := range specs {
		net := s.build(rtmap.ModelConfig{ActBits: 4, Sparsity: s.sparsity, Seed: 1})
		log.Printf("compiling %s", s.name)
		comp, err := rtmap.Compile(net, rtmap.DefaultCompileConfig())
		if err != nil {
			log.Fatal(err)
		}
		rep := rtmap.Analyze(comp)
		e := rtmap.Endurance(comp, rep)
		xb := xbar.Analyze(net, xbar.Default(), 4)
		fmt.Printf("%-20s %14.0f %16.1f %14.1f %11.1f%% %11.1f%%\n",
			s.name, e.WritesPerInference, e.MeanRewriteIntervalNS, e.LifetimeYears,
			100*rep.MovementShare(), 100*xb.MovementShare())
	}
}
