// Command rtmap-dfg inspects the arithmetic-level compiler:
//
//	rtmap-dfg -eq1          # the paper's Equation (1): 19 ops → 7 after CSE
//	rtmap-dfg -eq1 -dot     # its optimized DFG in Graphviz format (Fig. 3e)
//	rtmap-dfg -luts         # the generated Table I pass tables
//	rtmap-dfg -random 64    # CSE statistics on a random 64×9 slice
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand/v2"
	"os"

	"rtmap/internal/ap"
	"rtmap/internal/dfg"
	"rtmap/internal/ternary"
)

func main() {
	log.SetFlags(0)
	var (
		eq1    = flag.Bool("eq1", false, "analyze the paper's Equation (1)")
		dot    = flag.Bool("dot", false, "emit the DFG as Graphviz dot")
		luts   = flag.Bool("luts", false, "print the generated Table I LUTs")
		random = flag.Int("random", 0, "CSE stats for a random Nx9 slice")
		sparse = flag.Float64("sparsity", 0.8, "sparsity for -random")
		bits   = flag.Int("bits", 4, "input activation bits")
	)
	flag.Parse()
	if !*eq1 && !*luts && *random == 0 {
		flag.Usage()
		os.Exit(2)
	}

	if *luts {
		for _, l := range []*ap.LUT{ap.AddIn, ap.AddOut, ap.SubIn, ap.SubOut, ap.NegOut, ap.CopyOut} {
			fmt.Println(l)
		}
	}

	analyze := func(name string, s ternary.Slice) {
		naive := dfg.NaiveAccumulateOps(s)
		un := dfg.Build(s, dfg.Options{})
		cse := dfg.Build(s, dfg.Options{CSE: true})
		hi := int64(1)<<uint(*bits) - 1
		cse.AnnotateWidths(0, hi)
		st := cse.Statistics()
		fmt.Printf("%s: %d×%d, nnz %d\n", name, s.Cout, s.K, s.NNZ())
		fmt.Printf("  accumulate convention: %d ops\n", naive)
		fmt.Printf("  unroll:                %d add/sub\n", un.NumOps())
		fmt.Printf("  unroll+CSE:            %d add/sub (%.0f%% reduction), depth %d, max %d bits, %d negated aliases, %d zero rows\n",
			cse.NumOps(), 100*(1-float64(cse.NumOps())/float64(un.NumOps())),
			st.Depth, st.MaxBits, st.NegAliases, st.ZeroRows)
		if *dot {
			fmt.Print(cse.Dot(name))
		}
	}

	if *eq1 {
		analyze("equation1", dfg.Equation1())
	}
	if *random > 0 {
		rng := rand.New(rand.NewPCG(7, 7))
		w := ternary.Random(rng, *random, 1, 3, 3, *sparse)
		analyze("random", w.Slice(0))
	}
}
