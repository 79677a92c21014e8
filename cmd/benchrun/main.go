// benchrun regenerates the paper's experimental tables and figures (the
// Figs 5–8 row of README's "Paper section → package map").
//
// Usage:
//
//	benchrun [-exp all|fig5|fig67|fig8a|fig8b|psi|methods|planner|solver|chaos] [-seed n] [-repeats n] [-scale f]
//	benchrun -compare base.json head.json [-tolerance 0.20]
//
// An unknown -exp name is an error: benchrun lists the valid names and
// exits non-zero. The serving load generators live in perfbench/.
//
// fig8a at -scale 1 uses ≈1500-tuple relations as in the paper and takes
// a few minutes, dominated by the baseline's evaluation time (that is the
// result). Lower -scale for a quick look.
//
// -compare diffs two BENCH_solver.json artifacts (CI's bench-regression
// gate) and exits non-zero when any fixture × k cell regressed
// its cold or warm ns/op by more than -tolerance (default 0.20 = 20%).
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"slices"
	"strconv"
	"strings"

	"repro/internal/bench"
	"repro/internal/chaos/scenario"
)

// experiments lists the valid -exp names. "all" runs every print-only
// table; solver and chaos run only when named.
var experiments = []string{"all", "fig5", "fig67", "fig8a", "fig8b", "psi", "methods", "planner", "solver", "chaos"}

// checkExp rejects an -exp name that would otherwise run nothing.
func checkExp(name string) error {
	if slices.Contains(experiments, name) {
		return nil
	}
	return fmt.Errorf("unknown -exp %q; valid: %s", name, strings.Join(experiments, "|"))
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchrun: ")
	exp := flag.String("exp", "all", "experiment: "+strings.Join(experiments, "|"))
	seed := flag.Int64("seed", 1, "random seed")
	repeats := flag.Int("repeats", 1, "timing repetitions (minimum is reported)")
	scale := flag.Float64("scale", 1.0, "relative database scale for fig8a/fig8b")
	requests := flag.Int("requests", 200, "request count for the planner experiment")
	solverOut := flag.String("solverout", "BENCH_solver.json", "output path for the solver benchmark JSON")
	seeds := flag.Int64("seeds", 10, "seed count for the chaos soak")
	chaosOut := flag.String("chaosout", "CHAOS_FAIL.txt", "output path for failing chaos seed/schedule lines")
	compare := flag.Bool("compare", false, "compare two BENCH_solver.json files (base head) and fail on regression")
	tolerance := flag.Float64("tolerance", 0.20, "relative ns/op regression tolerance for -compare")
	flag.Parse()

	if *compare {
		runCompare(flag.Args(), *tolerance)
		return
	}
	if err := checkExp(*exp); err != nil {
		log.Fatal(err)
	}

	rng := rand.New(rand.NewSource(*seed))
	run := func(name string) bool { return *exp == "all" || *exp == name }

	if run("fig5") {
		fmt.Println("=== Fig 5: statistics of Q1's database (generated, then ANALYZEd) ===")
		table, err := bench.RunFig5(rng)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(table)
	}
	if run("fig67") {
		fmt.Println("=== Figs 6/7 & §6: cost-k-decomp on Q1 over the published Fig 5 statistics ===")
		rows, err := bench.RunFig67()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(bench.FormatFig7(rows))
		for _, r := range rows {
			if r.K == 2 || r.K == 4 {
				fmt.Printf("minimal decomposition for k=%d:\n%s\n", r.K, r.Decomp)
			}
		}
	}
	if run("fig8a") {
		fmt.Printf("=== Fig 8(A): Q1 evaluation, CommDB-style baseline vs cost-k-decomp (scale %.2f) ===\n", *scale)
		rows, err := bench.RunFig8AScaled(rng, *scale, *repeats)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(bench.FormatFig8A(rows))
	}
	if run("fig8b") {
		card := int(1500 * *scale)
		if card < 10 {
			card = 10
		}
		fmt.Printf("=== Fig 8(B): Q2 and Q3 at k=3, %d-tuple relations ===\n", card)
		rows, err := bench.RunFig8BScaled(rng, card, *repeats)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(bench.FormatFig8B(rows))
	}
	if run("psi") {
		fmt.Println("=== Theorem 4.5 remark: candidate-space size Ψ vs the loose bound n^k ===")
		fmt.Println(bench.FormatPsi(bench.RunPsiTable()))
	}
	if run("planner") {
		fmt.Printf("=== Planner service: %d renamed copies of Q1 (k=3), cold vs canonical-form cache ===\n", *requests)
		rows, stats, err := bench.RunPlannerExperiment(*requests)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(bench.FormatPlanner(rows, stats))
	}
	// Unlike the print-only experiments, solver writes a file; it runs only
	// when requested explicitly, not under -exp all.
	if *exp == "solver" {
		fmt.Println("=== Solver perf trajectory: cold/warm planning per fixture query × k ===")
		rep, err := bench.RunSolverBench()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(bench.FormatSolverBench(rep))
		if err := bench.WriteSolverBenchJSON(*solverOut, rep); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s\n", *solverOut)
	}
	if run("methods") {
		fmt.Println("=== Section 1.1: structural method comparison (bicomp / treewidth / ghw / hw) ===")
		fmt.Println(bench.FormatMethods(bench.RunMethodComparison()))
	}
	// Like solver, chaos runs only when requested explicitly: it is a soak,
	// not a table.
	if *exp == "chaos" {
		runChaosSoak(*seed, *seeds, *chaosOut)
	}
}

// runChaosSoak runs every chaos scenario over the seed range, printing one
// line per run. Failing runs have their seed + fault schedule appended to
// outPath (CI uploads it as an artifact) and the process exits non-zero
// after the full sweep, so one bad seed does not hide another.
func runChaosSoak(baseSeed, seeds int64, outPath string) {
	fmt.Printf("=== Chaos soak: %d scenarios x seeds %d..%d ===\n",
		len(scenario.Scenarios()), baseSeed, baseSeed+seeds-1)
	failed := 0
	for _, sc := range scenario.Scenarios() {
		for seed := baseSeed; seed < baseSeed+seeds; seed++ {
			err := scenario.Run(sc, scenario.Options{Seed: seed})
			if err == nil {
				fmt.Printf("ok   %-16s seed=%d\n", sc.Name, seed)
				continue
			}
			failed++
			fmt.Printf("FAIL %-16s seed=%d\n%v\n", sc.Name, seed, err)
			f, ferr := os.OpenFile(outPath, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
			if ferr != nil {
				log.Printf("cannot record failure: %v", ferr)
				continue
			}
			fmt.Fprintf(f, "%v\n", err)
			f.Close()
		}
	}
	if failed > 0 {
		log.Fatalf("%d chaos runs failed; reproduction lines in %s", failed, outPath)
	}
	fmt.Println("all chaos runs passed")
}

// runCompare executes the bench-regression gate. The documented invocation
// puts -tolerance after the positional paths ("-compare base.json
// head.json -tolerance 0.20"), where the Go flag package stops parsing, so
// the trailing flag is picked out of the remaining args by hand; the
// flags-first order works too via the registered -tolerance flag.
func runCompare(args []string, tolerance float64) {
	var paths []string
	for i := 0; i < len(args); i++ {
		a := args[i]
		switch {
		case a == "-tolerance" || a == "--tolerance":
			i++
			if i >= len(args) {
				log.Fatal("-tolerance needs a value")
			}
			v, err := strconv.ParseFloat(args[i], 64)
			if err != nil {
				log.Fatalf("bad -tolerance %q: %v", args[i], err)
			}
			tolerance = v
		case strings.HasPrefix(a, "-tolerance=") || strings.HasPrefix(a, "--tolerance="):
			v, err := strconv.ParseFloat(a[strings.Index(a, "=")+1:], 64)
			if err != nil {
				log.Fatalf("bad %s: %v", a, err)
			}
			tolerance = v
		default:
			paths = append(paths, a)
		}
	}
	if len(paths) != 2 {
		log.Fatal("usage: benchrun -compare base.json head.json [-tolerance 0.20]")
	}
	table, err := bench.CompareSolverBenchFiles(paths[0], paths[1], tolerance)
	if table != "" {
		fmt.Print(table)
	}
	if err != nil {
		log.SetOutput(os.Stderr)
		log.Fatal(err)
	}
	fmt.Printf("no cold/warm ns/op regression beyond %.0f%% (%s vs %s)\n", tolerance*100, paths[1], paths[0])
}
