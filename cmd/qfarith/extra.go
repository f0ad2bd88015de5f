package main

import (
	"flag"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"slices"
	"strconv"
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
	defer telem.start(nil)()

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

// runAblateRouting is experiment E7: how much success rate does the
// paper's complete-connectivity idealization hide? Compares the QFA at
// fixed noise on the ideal all-to-all layout against the same circuit
// routed onto realistic topologies.
func runAblateRouting(args []string) {
	fs := flag.NewFlagSet("ablate-routing", flag.ExitOnError)
	instances := fs.Int("instances", 30, "instances per point")
	traj := fs.Int("traj", 24, "trajectories per instance")
	p2 := fs.Float64("p2", 0.005, "2q depolarizing rate")
	var common sweepCommon
	common.register(fs, true)
	fs.Parse(args)
	defer common.prof.start()()
	ro := common.validate(0)
	if slices.Contains(ro.pipeline.PassList(), compile.PassRoute) {
		fmt.Fprintf(os.Stderr, "ablate-routing routes each topology itself; drop %q from -passes\n", compile.PassRoute)
		exit(2)
	}
	scorers := common.extraScorers()
	ctx, stop := sweepContext()
	defer stop()
	runner := common.runner()

	geo := experiment.PaperAddGeometry()
	cfg := experiment.PointConfig{
		Geometry: geo, Depth: 3,
		Model:  noise.PaperModel(0.002, *p2),
		OrderX: 1, OrderY: 2,
		Instances: *instances, Shots: 2048, Trajectories: *traj,
		RowSeed: 1001, PointSeed: 1002,
		Pipeline: ro.pipeline,
		Scorers:  scorers,
	}
	// Each topology is the same point compiled through the user's
	// pipeline with a route pass onto its coupling map.
	topos := []struct{ name, coupling string }{
		{"heavy-hex (Falcon 27)", "heavyhex27"},
		{"grid 3x5", "grid:3x5"},
		{"linear chain", "linear:15"},
	}
	keys := []string{"all-to-all"}
	for _, tp := range topos {
		keys = append(keys, tp.name)
	}
	// Routed points are the slowest single points in the suite, so the
	// topology loop checkpoints per topology when -rundir is given.
	run := ro.open("ablate-routing", cfg, keys)
	defer common.telem.start(run)()
	var ck experiment.CheckpointStore
	if run != nil {
		ck = run
	}
	fmt.Printf("E7 — qubit-connectivity ablation (QFA n=8, d=3, 1:2, λ1=0.2%%, λ2=%.2f%%)\n", *p2*100)
	fmt.Printf("%-22s %10s %10s %12s %12s\n", "topology", "CX", "swaps", "w0", "success")

	var base experiment.PointResult
	haveBase := false
	if ro.shard.Owns("all-to-all") {
		var err error
		base, err = experiment.RunPoint(ctx, runner, cfg, experiment.PointOptions{Key: "all-to-all", Checkpoint: ck})
		if err != nil {
			exitSweepErr(err, run)
		}
		haveBase = true
		fmt.Printf("%-22s %10d %10s %12.4f %11.1f%%\n", "all-to-all (paper)", base.Native2q, "-", base.NoErrorProb, base.Stats.SuccessRate)
	}
	for _, tp := range topos {
		if !ro.shard.Owns(tp.name) {
			continue
		}
		rc := cfg
		rc.Pipeline = routedPipeline(cfg.Pipeline, tp.coupling)
		r, err := experiment.RunPoint(ctx, runner, rc, experiment.PointOptions{Key: tp.name, Checkpoint: ck})
		if err != nil {
			exitSweepErr(err, run)
		}
		// Swap counting needs the unrouted baseline, which may belong to
		// another shard; the merged run reports it after a resume.
		swaps := "-"
		if haveBase {
			swaps = fmt.Sprintf("%d", (r.Native2q-base.Native2q)/3)
		}
		fmt.Printf("%-22s %10d %10s %12.4f %11.1f%%\n", tp.name, r.Native2q, swaps, r.NoErrorProb, r.Stats.SuccessRate)
	}
	if ro.shard.Enabled() {
		fmt.Printf("shard %s complete: merge with `qfarith merge-runs -out MERGED %s ...`, then resume the merged run for the full table\n",
			ro.shard, run.Dir())
	}
}

// routedPipeline is p with a route pass onto the named coupling map
// inserted before the terminal fuse (appended when p has no fuse).
func routedPipeline(p compile.Config, coupling string) compile.Config {
	passes := p.PassList()
	n := len(passes)
	if passes[n-1] == compile.PassFuse {
		n--
	}
	p.Passes = append(append(slices.Clip(passes[:n]), compile.PassRoute), passes[n:]...)
	p.Coupling = coupling
	return p
}

// runScaling is experiment E10, the paper's "extending the study to
// larger n" future-work item: sweep the sum-register width n and track
// how the optimal AQFT depth and the success rate move, at fixed 2q
// error rates (1:2 addition, (n-1)-qubit addend).
func runScaling(args []string) {
	fs := flag.NewFlagSet("scaling", flag.ExitOnError)
	instances := fs.Int("instances", 12, "instances per point")
	traj := fs.Int("traj", 16, "trajectories per instance")
	shots := fs.Int("shots", 2048, "shots per instance")
	widths := fs.String("n", "4,6,8,10", "comma-separated sum-register widths")
	rates := fs.String("rates", "1,2,3", "comma-separated 2q error percentages")
	var common sweepCommon
	common.register(fs, true)
	fs.Parse(args)
	defer common.prof.start()()
	ro := common.validate(0)
	extraScorers := common.extraScorers()
	ns := parseList("-n", *widths, func(tok string) (int, error) {
		n, err := strconv.Atoi(tok)
		if err == nil && n < 2 {
			err = fmt.Errorf("width %d < 2", n)
		}
		return n, err
	})
	p2s, err := experiment.RateGrid(parseList("-rates", *rates, parseFloat))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		exit(2)
	}
	ctx, stop := sweepContext()
	defer stop()
	runner := common.runner()

	scalingDepths := func(n int) []int {
		depths := []int{1, 2, 3}
		if n > 4 {
			depths = append(depths, 4)
		}
		return append(depths, qft.Full)
	}
	scalingKey := func(n, rateIdx, depthIdx int) string {
		return fmt.Sprintf("scaling/n%02d/r%02d/d%02d", n, rateIdx, depthIdx)
	}
	// The hashed identity of a scaling sweep mirrors sweepSpec: every
	// field that determines point results, nothing that only schedules.
	type scalingSpec struct {
		Command   string
		Ns        []int
		Rates     []float64
		Instances int
		Shots     int
		Traj      int
		Backend   string
		Pipeline  string
		Scorers   []string `json:",omitempty"`
	}
	spec := scalingSpec{Command: "scaling", Ns: ns, Rates: p2s,
		Instances: *instances, Shots: *shots, Traj: *traj,
		Backend: ro.backend, Pipeline: ro.pipeline.Hash(),
		Scorers: extraScorers}
	var keys []string
	for _, n := range ns {
		for ri := range p2s {
			for di := range scalingDepths(n) {
				keys = append(keys, scalingKey(n, ri, di))
			}
		}
	}
	run := ro.open("scaling", spec, keys)
	defer common.telem.start(run)()
	var ck experiment.CheckpointStore
	if run != nil {
		ck = run
	}

	fmt.Printf("E10 — register-width scaling (1:2 QFA, %d instances, %d traj)\n", *instances, *traj)
	fmt.Printf("%-4s %-8s %-28s %-10s %-10s\n", "n", "λ2q%", "success by depth 1,2,3,…,full", "best", "log2(n)")
	for _, n := range ns {
		depths := scalingDepths(n)
		for ri, p2 := range p2s {
			var cells []string
			best, bestS := 0, -1.0
			for di, d := range depths {
				key := scalingKey(n, ri, di)
				if !ro.shard.Owns(key) {
					// Owned by another shard: shown after merge + resume.
					cells = append(cells, "·")
					continue
				}
				cfg := experiment.PointConfig{
					Geometry: experiment.AddGeometry(n-1, n),
					Depth:    d,
					Model:    noise.PaperModel(0, p2),
					OrderX:   1, OrderY: 2,
					Instances: *instances, Shots: *shots, Trajectories: *traj,
					RowSeed:   experiment.SplitSeed(77, uint64(n)),
					PointSeed: experiment.SplitSeed(78, uint64(n)<<16|uint64(d)<<8|uint64(p2*1000)),
					Pipeline:  ro.pipeline,
					Scorers:   extraScorers,
				}
				r, err := experiment.RunPoint(ctx, runner, cfg, experiment.PointOptions{Key: key, Checkpoint: ck})
				if err != nil {
					exitSweepErr(err, run)
				}
				cells = append(cells, fmt.Sprintf("%.0f", r.Stats.SuccessRate))
				if r.Stats.SuccessRate > bestS {
					bestS, best = r.Stats.SuccessRate, d
				}
			}
			bestLabel := "-"
			if bestS >= 0 {
				bestLabel = experiment.DepthLabel(best, n)
			}
			fmt.Printf("%-4d %-8.1f %-28s %-10s %-10.1f\n", n, p2*100,
				strings.Join(cells, "/"), bestLabel, math.Log2(float64(n)))
		}
	}
	if ro.shard.Enabled() {
		fmt.Printf("shard %s complete: merge with `qfarith merge-runs -out MERGED %s ...`, then resume the merged run for the full table\n",
			ro.shard, run.Dir())
	}
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
	defer telem.start(nil)()

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
