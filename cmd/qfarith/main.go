// Command qfarith regenerates the paper's evaluation artifacts:
//
//	qfarith table1                  — Table I gate counts
//	qfarith fig3 [flags]            — Fig. 3 QFA success-rate sweeps
//	qfarith fig4 [flags]            — Fig. 4 QFM success-rate sweeps
//	qfarith fig3-signed [flags]     — QFS (signed subtraction) noise panels
//	qfarith fig4-signed [flags]     — signed QFM noise panels
//	qfarith claim-2q [flags]        — the conclusions' 1:2 vs 2:2 2q-rate claim
//	qfarith ablate-addcut [flags]   — approximate addition-step ablation (E6)
//	qfarith ablate-routing [flags]  — qubit-connectivity ablation (E7)
//	qfarith scaling [flags]         — register-width scaling (E10)
//	qfarith shor [flags]            — noisy gate-level order finding (E11)
//	qfarith report [files]          — summarize recorded panel CSVs (E5)
//	qfarith thermal [flags]         — composite gate+thermal+readout noise (E9)
//	qfarith qasm [flags]            — OpenQASM 2.0 export
//	qfarith demo                    — one noisy instance, counts histogram
//
// Every sweep command (the figures, claim-2q, scaling and the two
// ablations) runs one experiment.SweepSpec through experiment.RunSweep;
// with -rundir DIR its points checkpoint and its panel CSVs land in
// DIR, and merge-runs rebuilds them from sharded runs. Figure sweep
// flags: -budget quick|standard|full (or -instances/-shots/-traj to
// override), -out DIR for CSV output, -seed N.
package main

import (
	"fmt"
	"os"
	"slices"
	"strings"

	"qfarith/internal/arith"
	"qfarith/internal/experiment"
	"qfarith/internal/metrics"
	"qfarith/internal/noise"
	"qfarith/internal/qft"
	"qfarith/internal/sim"
	"qfarith/internal/transpile"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		exit(2)
	}
	cmd, args := os.Args[1], os.Args[2:]
	if slices.Contains(experiment.SweepCommands, cmd) {
		exit(runSweep(cmd, args, os.Stdout, os.Stderr))
	}
	switch cmd {
	case "table1":
		runTable1()
	case "demo":
		runDemo()
	case "qasm":
		runQASM(args)
	case "thermal":
		runThermal(args)
	case "report":
		runReport(args)
	case "shor":
		runShor(args)
	case "merge-runs":
		exit(runMergeRuns(args, os.Stdout, os.Stderr))
	default:
		usage()
		exit(2)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: qfarith <table1|fig3|fig4|fig3-signed|fig4-signed|claim-2q|ablate-addcut|ablate-routing|scaling|shor|merge-runs|report|demo|qasm|thermal> [flags]")
}

// ---------------------------------------------------------------- table1

func runTable1() {
	fmt.Println("Table I — Arithmetic Circuit Gate Counts (paper counting convention)")
	fmt.Println()
	fmt.Println("QFA (n=8: 7-qubit addend, 8-qubit sum register)")
	fmt.Printf("%-8s %8s %8s %14s %14s\n", "depth", "1q", "2q", "native-1q", "native-2q")
	for _, d := range []int{1, 2, 3, 4, 7} {
		c := arith.NewQFA(7, 8, arith.Config{Depth: d, AddCut: arith.FullAdd})
		one, two := transpile.PaperCounts(c)
		r := transpile.Transpile(c)
		n1, n2 := r.CountByArity()
		label := fmt.Sprintf("%d", d)
		if d == 7 {
			label = "7 (full)"
		}
		fmt.Printf("%-8s %8d %8d %14d %14d\n", label, one, two, n1, n2)
	}
	fmt.Println()
	fmt.Println("QFM (n=4: 4x4 multiplicands, 8-qubit product register)")
	fmt.Printf("%-8s %8s %8s %14s %14s\n", "depth", "1q", "2q", "native-1q", "native-2q")
	for _, d := range []int{1, 2, qft.Full} {
		c := arith.NewQFM(4, 4, arith.Config{Depth: d, AddCut: arith.FullAdd})
		one, two := transpile.PaperCounts(c)
		r := transpile.Transpile(c)
		n1, n2 := r.CountByArity()
		label := fmt.Sprintf("%d", d)
		if d == qft.Full {
			label = "full"
		}
		fmt.Printf("%-8s %8d %8d %14d %14d\n", label, one, two, n1, n2)
	}
	fmt.Println()
	fmt.Println("paper reference — QFA 1q: 163/199/229/253/289, 2q: 98/122/142/158/182")
	fmt.Println("                  QFM 1q: 1032/1248/1464,      2q: 744/936/1128")
}

// ---------------------------------------------------------------- demo

func runDemo() {
	fmt.Println("demo — one 2:2 QFA instance at current-hardware noise (λ1=0.2%, λ2=1%)")
	geo := experiment.PaperAddGeometry()
	res := geo.BuildCircuit(3)
	engine := noise.NewEngine(res, noise.PaperModel(0.002, 0.01))
	var initial []sim.Amp
	xs, ys := []int{19, 100}, []int{7, 200}
	for _, x := range xs {
		for _, y := range ys {
			initial = append(initial, sim.Amp{Index: x | y<<7, Value: 0.5})
		}
	}
	dist := make([]float64, 256)
	rng := sim.NewSampler(12345, 678)
	engine.Mixture(dist, initial, noise.MixtureOpts{Trajectories: 64, Measure: geo.OutReg}, rng.Rand())
	counts := rng.Counts(dist, 2048)
	correct := metrics.CorrectSumsInto(nil, xs, ys, 8)
	fmt.Printf("addends x∈%v, y∈%v; correct sums: %v\n", xs, ys, correct)
	fmt.Println("top outputs:")
	for _, v := range metrics.TopOutcomes(counts, 8) {
		tag := " "
		if slices.Contains(correct, v) {
			tag = "*"
		}
		fmt.Printf("  %s %3d: %4d counts  %s\n", tag, v, counts[v], strings.Repeat("#", counts[v]/16))
	}
	score := metrics.Score(counts, correct)
	fmt.Printf("instance success: %v (margin %d counts)\n", score.Success, score.Margin)
}
