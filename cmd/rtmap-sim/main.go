// Command rtmap-sim runs the functional AP simulation of a compiled
// network and verifies bit-exactness against the quantized software
// reference — the paper's "retaining software accuracy" property:
//
//	rtmap-sim -model tinyresnet -inputs 5
//	rtmap-sim -model tinycnn -inputs 3 -bits 8
//	rtmap-sim -model tinycnn -inputs 3 -json     # machine-readable verdicts
//
// Every input is checked individually; the exit status is non-zero when
// ANY input disagrees with the reference on any layer, so CI can gate on
// bit-exactness.
//
// Functional simulation executes the real emitted AP programs on the
// lane-packed ap.Machine (proved bit-exact against the bit-serial LUT
// replay in the test suite), so use the tiny models or be prepared to wait.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"rtmap"
	"rtmap/internal/model"
	"rtmap/internal/workload"
)

type inputVerdict struct {
	Input int    `json:"input"`
	OK    bool   `json:"ok"`
	Error string `json:"error,omitempty"`
}

type simResult struct {
	Model    string         `json:"model"`
	ActBits  int            `json:"act_bits"`
	Sparsity float64        `json:"sparsity"`
	Seed     uint64         `json:"seed"`
	Inputs   int            `json:"inputs"`
	OK       bool           `json:"ok"`
	Failures int            `json:"failures"`
	Verdicts []inputVerdict `json:"verdicts"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("rtmap-sim: ")
	def := model.DefaultConfig()
	var (
		modelName = flag.String("model", "tinycnn", "zoo model ("+strings.Join(model.ZooNames(), "|")+")")
		inputs    = flag.Int("inputs", 3, "number of random inputs to verify")
		bits      = flag.Int("bits", def.ActBits, "activation precision")
		sparsity  = flag.Float64("sparsity", def.Sparsity, "weight sparsity")
		seed      = flag.Uint64("seed", def.Seed, "weight/data seed")
		jsonOut   = flag.Bool("json", false, "emit machine-readable verdicts on stdout")
	)
	flag.Parse()

	net, err := model.Build(*modelName, model.Config{ActBits: *bits, Sparsity: *sparsity, Seed: *seed})
	if err != nil {
		log.Fatal(err)
	}

	ins := workload.Inputs(net.InputShape, *inputs, *seed+100)
	log.Printf("compiling %s with programs retained", net.Name)
	ccfg := rtmap.DefaultCompileConfig()
	ccfg.KeepPrograms = true
	comp, err := rtmap.Compile(net, ccfg)
	if err != nil {
		log.Fatal(err)
	}

	res := simResult{
		Model: net.Name, ActBits: *bits, Sparsity: *sparsity, Seed: *seed,
		Inputs: *inputs, OK: true,
	}
	for i, in := range ins {
		v := inputVerdict{Input: i, OK: true}
		if err := rtmap.VerifyInput(comp, in); err != nil {
			v.OK = false
			v.Error = err.Error()
			res.OK = false
			res.Failures++
			log.Printf("input %d: FAILED: %v", i, err)
		}
		res.Verdicts = append(res.Verdicts, v)
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(&res); err != nil {
			log.Fatal(err)
		}
	} else if res.OK {
		fmt.Printf("OK: %s — AP execution bit-identical to the software reference on %d inputs (every layer)\n",
			net.Name, *inputs)
	} else {
		fmt.Printf("FAILED: %s — %d of %d inputs diverge from the software reference\n",
			net.Name, res.Failures, *inputs)
	}
	if !res.OK {
		os.Exit(1)
	}
}
