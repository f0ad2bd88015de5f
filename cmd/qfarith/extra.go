package main

import (
	"flag"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strings"

	"qfarith/internal/arith"
	"qfarith/internal/circuit"
	"qfarith/internal/compile"
	"qfarith/internal/experiment"
	"qfarith/internal/noise"
	"qfarith/internal/qasm"
	"qfarith/internal/qft"
	"qfarith/internal/sim"
	"qfarith/internal/transpile"
)

// runQASM dumps an arithmetic circuit as OpenQASM 2.0 for inspection or
// execution on other stacks (e.g. the Qiskit pipeline the paper used).
func runQASM(args []string) {
	fs := flag.NewFlagSet("qasm", flag.ExitOnError)
	op := fs.String("op", "qfa", "qfa|qfm|qft")
	depth := fs.Int("depth", 0, "AQFT depth (0 = full)")
	xbits := fs.Int("x", 7, "addend/multiplier width")
	ybits := fs.Int("y", 8, "sum-register/multiplicand width")
	native := fs.Bool("native", false, "transpile to the IBM basis {id,x,rz,sx,cx} first")
	// -native exports always ran the peephole cleanup, so its passes are
	// the default here (unlike sweeps, where optimization is opt-in).
	passes := fs.String("passes", strings.Join([]string{
		compile.PassDecompose, compile.PassCancelInverses,
		compile.PassFoldAngles, compile.PassPruneZeroAngle,
	}, ","), "compilation pass list for -native, comma-separated")
	compileDebug := fs.Bool("compile-debug", false, "verify statevector equivalence after every compilation pass")
	fs.Parse(args)
	d := *depth
	if d <= 0 {
		d = qft.Full
	}
	cfg := arith.Config{Depth: d, AddCut: arith.FullAdd}
	var c *circuitT
	switch *op {
	case "qfa":
		c = arith.NewQFA(*xbits, *ybits, cfg)
	case "qfm":
		c = arith.NewQFM(*xbits, *ybits, cfg)
	case "qft":
		c = qft.New(*ybits, d)
	default:
		fmt.Fprintf(os.Stderr, "unknown op %q\n", *op)
		exit(2)
	}
	if *native {
		c = compileForExport(c, compile.Config{
			Passes: compile.ParsePasses(*passes), Debug: *compileDebug,
		})
	}
	fmt.Print(qasm.Export(c))
}

// runThermal demonstrates the composite-noise engine (paper future
// work): 1:1 QFA under gate + thermal + readout noise.
func runThermal(args []string) {
	fs := flag.NewFlagSet("thermal", flag.ExitOnError)
	t1 := fs.Float64("t1", 100e-6, "T1 relaxation time (s)")
	t2 := fs.Float64("t2", 80e-6, "T2 dephasing time (s)")
	readout := fs.Float64("readout", 0.02, "per-bit readout flip probability")
	traj := fs.Int("traj", 120, "trajectories")
	var prof profiler
	prof.register(fs)
	var telem telemetryFlags
	telem.register(fs)
	fs.Parse(args)
	defer prof.start()()
	defer telem.start(nil, os.Stdout)()

	geo := experiment.PaperAddGeometry()
	res := geo.BuildCircuit(3)
	x, y := 77, 30
	want := (x + y) & 255
	initial := make([]complex128, 1<<uint(geo.TotalQubits))
	initial[x|y<<7] = 1
	thermal := noise.ThermalParams{T1: *t1, T2: *t2, Gate1qTime: 35e-9, Gate2qTime: 300e-9}
	fe := noise.NewFullEngine(res, noise.PaperModel(0.002, 0.01), thermal, *readout)
	st := sim.NewState(geo.TotalQubits)
	rng := rand.New(rand.NewPCG(5, 6))
	dist := fe.EstimateDist(st, initial, geo.OutReg, *traj, rng)
	mit, err := noise.MitigateReadout(dist, *readout)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		exit(1)
	}
	fmt.Printf("QFA(n=8) %d+%d under gate+thermal+readout noise (T1=%.0fµs T2=%.0fµs ro=%.1f%%)\n",
		x, y, *t1*1e6, *t2*1e6, *readout*100)
	fmt.Printf("  P(correct)            = %.3f\n", dist[want])
	fmt.Printf("  after readout mitig.  = %.3f\n", mit[want])
	fmt.Printf("  (gate errors alone leave ≈ w0 = %.3f of clean shots)\n",
		noiseW0(geo, 3))
}

func noiseW0(geo experiment.Geometry, depth int) float64 {
	res := geo.BuildCircuit(depth)
	return noise.NewEngine(res, noise.PaperModel(0.002, 0.01)).NoErrorProb()
}

// runShor is experiment E11, the capstone: the complete gate-level
// order-finding circuit (Beauregard controlled modular multiplication
// built from this library's Fourier adders) run under the paper's gate
// noise, reporting how much probability mass survives on the correct
// phase peaks as the error rates grow — Shor's algorithm meeting the
// paper's noise analysis.
func runShor(args []string) {
	fs := flag.NewFlagSet("shor", flag.ExitOnError)
	base := fs.Uint64("a", 7, "base")
	modulus := fs.Uint64("N", 15, "modulus")
	tbits := fs.Int("t", 4, "phase bits")
	traj := fs.Int("traj", 24, "trajectories per point")
	var prof profiler
	prof.register(fs)
	var telem telemetryFlags
	telem.register(fs)
	fs.Parse(args)
	defer prof.start()()
	defer telem.start(nil, os.Stdout)()

	c, lay := arith.NewOrderFinding(*base, *modulus, *tbits, arith.DefaultConfig())
	res := transpile.Transpile(c)
	n1, n2 := res.CountByArity()
	fmt.Printf("E11 — noisy gate-level order finding: a=%d N=%d t=%d\n", *base, *modulus, *tbits)
	fmt.Printf("circuit: %d qubits, %d logical ops, %d native 1q + %d CX\n\n",
		lay.Total, len(c.Ops), n1, n2)

	// Identify the ideal peaks first.
	st := sim.NewState(lay.Total)
	st.ApplyCircuit(c)
	ideal := st.RegisterProbs(lay.Phase)
	peaks := map[int]bool{}
	for v, p := range ideal {
		if p > 1e-6 {
			peaks[v] = true
		}
	}
	fmt.Printf("ideal peaks: %d outcomes carrying all probability\n", len(peaks))
	fmt.Printf("%-14s %-14s %-12s %-12s\n", "λ1q=λ2q/5", "λ2q", "w0", "peak mass")
	for _, p2 := range []float64{0, 0.0001, 0.0003, 0.001, 0.003, 0.01} {
		model := noise.Noiseless
		if p2 > 0 {
			model = noise.PaperModel(p2/5, p2)
		}
		engine := noise.NewEngine(res, model)
		dist := make([]float64, 1<<uint(*tbits))
		rng := rand.New(rand.NewPCG(1, uint64(p2*1e9)))
		engine.Mixture(dist, nil, noise.MixtureOpts{
			Trajectories: *traj, Measure: lay.Phase,
		}, rng)
		mass := 0.0
		for v := range peaks {
			mass += dist[v]
		}
		fmt.Printf("%-14.5f %-14.5f %-12.5f %-12.3f\n", p2/5, p2, engine.NoErrorProb(), mass)
	}
	fmt.Println("\nreading: with thousands of native gates, even rates an order of")
	fmt.Println("magnitude below today's hardware wash out the period peaks — the")
	fmt.Println("scale gap between the paper's 8-qubit adders and useful Shor.")
}

// runReport summarizes previously recorded panel CSVs: the optimal
// depth per error-rate cluster (E5) for every file given (or every
// *.csv under -dir).
func runReport(args []string) {
	fs := flag.NewFlagSet("report", flag.ExitOnError)
	dir := fs.String("dir", "results", "directory of panel CSVs")
	fs.Parse(args)
	files := fs.Args()
	if len(files) == 0 {
		matches, err := filepath.Glob(filepath.Join(*dir, "*.csv"))
		if err != nil || len(matches) == 0 {
			fmt.Fprintf(os.Stderr, "no CSVs found under %s\n", *dir)
			exit(1)
		}
		files = matches
	}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			exit(1)
		}
		rows, err := experiment.ParseCSV(string(data))
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", f, err)
			continue
		}
		fmt.Printf("== %s ==\n%s\n", filepath.Base(f), experiment.ReportFromCSV(rows))
	}
}

// circuitT aliases the internal circuit type for this command's helpers.
type circuitT = circuit.Circuit

// compileForExport runs c through the given pass pipeline and returns
// the native circuit, exiting on an invalid pipeline or a debug-mode
// verification failure.
func compileForExport(c *circuitT, pcfg compile.Config) *circuitT {
	p, err := compile.New(pcfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		exit(2)
	}
	art, err := p.Compile(c)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		exit(1)
	}
	return art.Result.Circuit()
}
