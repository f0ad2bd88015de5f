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
// Sweep flags: -budget quick|standard|full (or -instances/-shots/-traj to
// override), -out DIR for CSV output, -seed N.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"time"

	"qfarith/internal/arith"
	"qfarith/internal/backend"
	"qfarith/internal/compile"
	"qfarith/internal/experiment"
	"qfarith/internal/metrics"
	"qfarith/internal/noise"
	"qfarith/internal/qft"
	"qfarith/internal/runstore"
	"qfarith/internal/sim"
	"qfarith/internal/transpile"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		exit(2)
	}
	cmd, args := os.Args[1], os.Args[2:]
	switch cmd {
	case "table1":
		runTable1()
	case "fig3":
		runFigure(args, experiment.PaperAddGeometry(), experiment.AddDepths, "fig3")
	case "fig4":
		runFigure(args, experiment.PaperMulGeometry(), experiment.MulDepths, "fig4")
	case "fig3-signed":
		runFigure(args, experiment.PaperSubGeometry(), experiment.AddDepths, "fig3-signed")
	case "fig4-signed":
		runFigure(args, experiment.PaperSignedMulGeometry(), experiment.MulDepths, "fig4-signed")
	case "claim-2q":
		runClaim2Q(args)
	case "ablate-addcut":
		runAblateAddCut(args)
	case "demo":
		runDemo()
	case "qasm":
		runQASM(args)
	case "thermal":
		runThermal(args)
	case "ablate-routing":
		runAblateRouting(args)
	case "report":
		runReport(args)
	case "scaling":
		runScaling(args)
	case "shor":
		runShor(args)
	case "merge-runs":
		runMergeRuns(args)
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

// ---------------------------------------------------------------- sweeps

type sweepFlags struct {
	budget    experiment.Budget
	outDir    string
	seed      uint64
	rates1q   []float64
	rates2q   []float64
	axes      []experiment.ErrorAxis
	orderSets [][2]int
	backend   string
	workers   int
	rundir    string
	resume    bool
	shard     experiment.Shard
	pipeline  compile.Config
	scorers   []string
	prof      profiler
	telem     telemetryFlags
}

// runner builds the shared execution runner the sweep submits to: the
// selected backend behind one bounded worker pool.
func (sf sweepFlags) runner() *backend.Runner {
	return newRunnerOrExit(sf.backend, sf.workers)
}

func newRunnerOrExit(backendName string, workers int) *backend.Runner {
	b, err := backend.New(backendName)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		exit(2)
	}
	return backend.NewRunner(b, workers)
}

// sweepContext returns a context cancelled by Ctrl-C / SIGTERM, so a
// long sweep stops mid-grid cleanly instead of being killed.
func sweepContext() (context.Context, context.CancelFunc) {
	return signal.NotifyContext(context.Background(), os.Interrupt)
}

// exitSweepErr reports a sweep error and leaves through exit(), so
// profiles flush and checkpoint logs close; interruption exits with the
// conventional 130 status.
func exitSweepErr(err error, run *runstore.Run) {
	if errors.Is(err, context.Canceled) {
		if run != nil {
			fmt.Fprintf(os.Stderr, "interrupted — completed points checkpointed in %s; rerun with -rundir %s -resume\n",
				run.Dir(), run.Dir())
		} else {
			fmt.Fprintln(os.Stderr, "interrupted — sweep cancelled mid-grid, partial results discarded (use -rundir for durable runs)")
		}
		exit(130)
	}
	fmt.Fprintln(os.Stderr, err)
	exit(1)
}

// spec assembles the sweep's hashed identity. The struct itself lives
// in internal/experiment (SweepSpec) because the qfarithd job API
// builds the very same value: equal specs mean equal config hashes,
// which is what lets the CLI resume a daemon-created run directory.
func (sf sweepFlags) spec(command string, geo experiment.Geometry, depths []int) experiment.SweepSpec {
	return experiment.SweepSpec{
		Command: command, Geometry: geo, Depths: depths,
		Axes: sf.axes, Orders: sf.orderSets,
		Rates1Q: sf.rates1q, Rates2Q: sf.rates2q,
		Instances: sf.budget.Instances, Shots: sf.budget.Shots,
		Traj: sf.budget.Trajectories,
		Seed: sf.seed, Backend: sf.backend,
		Pipeline: sf.pipeline.Hash(),
		Scorers:  sf.scorers,
	}
}

// openRun creates (or, with -resume, reopens and hash-verifies) the
// sweep's durable run directory and registers its checkpoint log with
// the exit path. Returns nil when -rundir is unset. keys is the full
// grid's checkpoint-key list (all shards record the same full list);
// it and the sweep spec are written as sidecars so merge-runs can
// detect gaps and regenerate final CSVs without re-deriving the grid.
func (sf sweepFlags) openRun(command string, spec any, keys []string) *runstore.Run {
	if sf.rundir == "" {
		if sf.resume {
			fmt.Fprintln(os.Stderr, "-resume requires -rundir")
			exit(2)
		}
		if sf.shard.Enabled() {
			fmt.Fprintln(os.Stderr, "-shard requires -rundir (shard outputs are merged from run directories)")
			exit(2)
		}
		return nil
	}
	hash, err := runstore.HashConfig(spec)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		exit(1)
	}
	var run *runstore.Run
	if sf.resume {
		run, err = runstore.Resume(sf.rundir, hash)
		if err == nil && run.Manifest().Shard != sf.shard.String() {
			fmt.Fprintf(os.Stderr, "run %s was started as shard %q, current -shard is %q (refusing to change the partition mid-run)\n",
				run.Dir(), run.Manifest().Shard, sf.shard.String())
			exit(1)
		}
	} else {
		run, err = runstore.Create(sf.rundir, runstore.Manifest{
			Command: command, ConfigHash: hash, Seed: sf.seed,
			Backend: sf.backend, Pipeline: sf.pipeline.Hash(),
			GitDescribe: runstore.GitDescribe("."),
			StartTime:   time.Now().UTC(),
			Shard:       sf.shard.String(),
		})
		if err == nil {
			if serr := runstore.WriteSpec(run.Dir(), spec); serr != nil {
				fmt.Fprintln(os.Stderr, serr)
				exit(1)
			}
			if serr := runstore.WriteExpectedKeys(run.Dir(), keys); serr != nil {
				fmt.Fprintln(os.Stderr, serr)
				exit(1)
			}
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		exit(1)
	}
	onExit(func() { run.Close() })
	if sf.shard.Enabled() {
		telemetryShard(sf.shard)
	}
	switch {
	case sf.resume && sf.shard.Enabled():
		fmt.Printf("resuming shard %s run %s: %d checkpointed points restored\n", sf.shard, run.Dir(), run.Restored())
	case sf.resume:
		fmt.Printf("resuming run %s: %d checkpointed points restored\n", run.Dir(), run.Restored())
	case sf.shard.Enabled():
		fmt.Printf("run dir %s (config %s, shard %s of the grid)\n", run.Dir(), hash, sf.shard)
	default:
		fmt.Printf("run dir %s (config %s)\n", run.Dir(), hash)
	}
	return run
}

func parseSweepFlags(args []string, name string) sweepFlags {
	fs := flag.NewFlagSet(name, flag.ExitOnError)
	budgetName := fs.String("budget", "standard", "quick|standard|full")
	instances := fs.Int("instances", 0, "override instance count")
	shots := fs.Int("shots", 0, "override shots per instance")
	traj := fs.Int("traj", 0, "override conditional trajectories per instance")
	out := fs.String("out", "results", "output directory for CSV files")
	seed := fs.Uint64("seed", 20260704, "base RNG seed")
	axis := fs.String("axis", "both", "1q|2q|both")
	orders := fs.String("orders", "1:1,1:2,2:2", "comma-separated operand orders")
	rates := fs.String("rates", "", "override error-rate grid, comma-separated percentages (e.g. 1,2,3,5)")
	backendName := fs.String("backend", backend.DefaultName,
		"execution backend: "+strings.Join(backend.Names(), "|"))
	workers := fs.Int("workers", 0, "worker-pool size shared across points and instances (0 = GOMAXPROCS)")
	rundir := fs.String("rundir", "", "durable run directory: manifest + per-point checkpoint log; artifacts land here")
	resume := fs.Bool("resume", false, "resume the run in -rundir, skipping checkpointed points")
	shardStr := fs.String("shard", "", "run shard i/N of the grid (e.g. 0/3): only points whose key hashes to i mod N; requires -rundir, merge with merge-runs")
	scorers := fs.String("scorers", "margin",
		"success metrics, comma-separated (registered: "+strings.Join(metrics.ScorerNames(), ",")+"); margin is always on, extras append CSV columns")
	var cf compileFlags
	cf.register(fs)
	var prof profiler
	prof.register(fs)
	var telem telemetryFlags
	telem.register(fs)
	fs.Parse(args)
	if *resume && *rundir == "" {
		fmt.Fprintln(os.Stderr, "-resume requires -rundir")
		exit(2)
	}
	shard, err := experiment.ParseShard(*shardStr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		exit(2)
	}
	if shard.Enabled() && *rundir == "" {
		fmt.Fprintln(os.Stderr, "-shard requires -rundir (shard outputs are merged from run directories)")
		exit(2)
	}
	extraScorers := parseScorers(*scorers)
	pcfg := cf.config()

	var b experiment.Budget
	switch *budgetName {
	case "quick":
		b = experiment.Quick
	case "standard":
		b = experiment.Standard
	case "full":
		b = experiment.Full
	default:
		fmt.Fprintf(os.Stderr, "unknown budget %q\n", *budgetName)
		exit(2)
	}
	if *instances > 0 {
		b.Instances = *instances
	}
	if *shots > 0 {
		b.Shots = *shots
	}
	if *traj > 0 {
		b.Trajectories = *traj
	}

	b.Workers = *workers
	sf := sweepFlags{budget: b, outDir: *out, seed: *seed,
		rates1q: experiment.PaperRates1Q, rates2q: experiment.PaperRates2Q,
		backend: *backendName, workers: *workers,
		rundir: *rundir, resume: *resume, shard: shard,
		pipeline: pcfg, scorers: extraScorers, prof: prof, telem: telem}
	if *rates != "" {
		var grid []float64
		for _, tok := range strings.Split(*rates, ",") {
			var pct float64
			if _, err := fmt.Sscanf(strings.TrimSpace(tok), "%g", &pct); err != nil {
				fmt.Fprintf(os.Stderr, "bad rate %q\n", tok)
				exit(2)
			}
			grid = append(grid, pct/100)
		}
		sf.rates1q, sf.rates2q = grid, grid
	}
	switch *axis {
	case "1q":
		sf.axes = []experiment.ErrorAxis{experiment.Axis1Q}
	case "2q":
		sf.axes = []experiment.ErrorAxis{experiment.Axis2Q}
	case "both":
		sf.axes = []experiment.ErrorAxis{experiment.Axis1Q, experiment.Axis2Q}
	default:
		fmt.Fprintf(os.Stderr, "unknown axis %q\n", *axis)
		exit(2)
	}
	for _, tok := range strings.Split(*orders, ",") {
		var ox, oy int
		if _, err := fmt.Sscanf(strings.TrimSpace(tok), "%d:%d", &ox, &oy); err != nil {
			fmt.Fprintf(os.Stderr, "bad orders token %q\n", tok)
			exit(2)
		}
		sf.orderSets = append(sf.orderSets, [2]int{ox, oy})
	}
	return sf
}

// parseScorers validates the -scorers flag value: a comma-separated
// list of registered scorer names. The paper's margin scoring is always
// on (its six columns are the frozen CSV schema), so "margin" is
// stripped; what remains — deduplicated, order preserved — is the extra
// scorer list threaded into every PointConfig. An empty result keeps
// the sweep on the historical margin-only path, byte for byte.
func parseScorers(s string) []string {
	var extras []string
	seen := map[string]bool{}
	for _, tok := range strings.Split(s, ",") {
		name := strings.TrimSpace(tok)
		if name == "" || name == "margin" || seen[name] {
			continue
		}
		if _, ok := metrics.LookupScorer(name); !ok {
			fmt.Fprintf(os.Stderr, "unknown scorer %q (registered: %s)\n",
				name, strings.Join(metrics.ScorerNames(), ","))
			exit(2)
		}
		seen[name] = true
		extras = append(extras, name)
	}
	return extras
}

// compileFlags registers the compilation-pipeline flags shared by every
// circuit-running subcommand (sweeps, scaling, ablate-routing).
type compileFlags struct {
	passes   *string
	coupling *string
	debug    *bool
}

func (cf *compileFlags) register(fs *flag.FlagSet) {
	cf.passes = fs.String("passes", compile.DefaultString(),
		"compilation pass list, comma-separated (known: "+strings.Join(compile.KnownPasses(), ",")+")")
	cf.coupling = fs.String("coupling", "",
		"coupling map for the route pass: linear:N, grid:RxC, heavyhex27")
	cf.debug = fs.Bool("compile-debug", false,
		"verify statevector equivalence after every compilation pass (small registers only)")
}

// config validates the flags into a compile.Config, exiting on an
// invalid pipeline so errors surface before any sweeping starts.
func (cf *compileFlags) config() compile.Config {
	cfg := compile.Config{
		Passes:   compile.ParsePasses(*cf.passes),
		Coupling: *cf.coupling,
		Debug:    *cf.debug,
	}
	if _, err := compile.New(cfg); err != nil {
		fmt.Fprintln(os.Stderr, err)
		exit(2)
	}
	return cfg
}

// printPassStats renders the per-pass compilation summary, summed over
// every distinct circuit the sweep compiled.
func printPassStats(c *backend.TranspileCache) {
	stats := c.PassStats()
	if len(stats) == 0 {
		return
	}
	fmt.Println("compilation passes (summed over compiled circuits):")
	fmt.Printf("  %-18s %8s %8s %8s %8s %8s %8s %8s %10s\n",
		"pass", "ops", "ops'", "1q", "1q'", "2q", "2q'", "depthΔ", "wall")
	for _, st := range stats {
		extra := ""
		if st.Segments > 0 {
			extra = fmt.Sprintf("  segments=%d", st.Segments)
		}
		if st.Swaps > 0 {
			extra += fmt.Sprintf("  swaps=%d", st.Swaps)
		}
		fmt.Printf("  %-18s %8d %8d %8d %8d %8d %8d %8d %10s%s\n",
			st.Pass, st.OpsBefore, st.OpsAfter, st.OneQBefore, st.OneQAfter,
			st.TwoQBefore, st.TwoQAfter, st.DepthAfter-st.DepthBefore,
			st.Wall.Round(time.Microsecond), extra)
	}
}

func runFigure(args []string, geo experiment.Geometry, depths []int, name string) {
	sf := parseSweepFlags(args, name)
	defer sf.prof.start()()
	// The panel set — and with it the full grid's checkpoint keys — is
	// fixed before anything runs, so the key list can be recorded for
	// merge-time gap detection and shard ownership filtering. The
	// enumeration is shared with merge-runs and the qfarithd executor
	// (experiment.SweepSpec.Panels), so every consumer agrees on panel
	// labels, grid keys, and seeds.
	spec := sf.spec(name, geo, depths)
	panels, allKeys := spec.Panels(sf.pipeline, sf.budget.Workers)
	run := sf.openRun(name, spec, allKeys)
	artifactDir := sf.outDir
	if run != nil {
		artifactDir = run.Dir()
	}
	if err := os.MkdirAll(artifactDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, err)
		exit(1)
	}
	snapDir := ""
	if run != nil {
		snapDir = run.Dir()
	}
	defer sf.telem.start(snapDir)()
	ctx, stop := sweepContext()
	defer stop()
	runner := sf.runner()
	fmt.Printf("backend=%s workers=%d\n", runner.Backend().Name(), runner.Workers())
	start := time.Now()
	tracker := newSweepTracker(len(sf.shard.OwnedKeys(allKeys)))
	defer tracker.stop()
	for _, pj := range panels {
		label, pc := pj.Label, pj.Config
		owned := len(sf.shard.OwnedKeys(pc.Keys(label)))
		if sf.shard.Enabled() {
			fmt.Printf("== panel %s (%d rates x %d depths; shard %s owns %d) ==\n",
				label, len(pc.Rates), len(pc.Depths), sf.shard, owned)
		} else {
			fmt.Printf("== panel %s (%d rates x %d depths) ==\n", label, len(pc.Rates), len(pc.Depths))
		}
		progress := func(p experiment.Progress) {
			tracker.observe(p)
			if p.FromCheckpoint {
				// openRun already announced the restored total; a line
				// per restored cell would just scroll the terminal.
				return
			}
			fmt.Printf("  [%s %3d/%d] rate=%.2f%% d=%-4s -> %.1f%% success (elapsed %s)\n",
				label, p.Done, p.Total, pointRate(p.Point)*100,
				experiment.DepthLabel(p.Point.Config.Depth, 8),
				p.Point.Stats.SuccessRate, time.Since(start).Round(time.Second))
		}
		var res experiment.PanelResult
		var err error
		if run != nil {
			res, err = experiment.RunPanelShardCheckpointCtx(ctx, runner, pc, label, sf.shard, run, progress)
		} else {
			res, err = experiment.RunPanelCtx(ctx, runner, pc, progress)
		}
		if err != nil {
			exitSweepErr(err, run)
		}
		if sf.shard.Enabled() {
			// A shard's grid is partial by construction: writing a CSV
			// with zero rows for unowned cells would only mislead.
			// merge-runs regenerates the full CSVs from the union.
			continue
		}
		path := filepath.Join(artifactDir, label+".csv")
		if err := runstore.WriteArtifact(path, []byte(res.CSV())); err != nil {
			fmt.Fprintln(os.Stderr, err)
			exit(1)
		}
		fmt.Println(res.Table())
		fmt.Println(res.Plot())
	}
	if sf.shard.Enabled() {
		fmt.Printf("shard %s complete: %d points checkpointed in %s; merge with `qfarith merge-runs -out MERGED %s ...`\n",
			sf.shard, len(sf.shard.OwnedKeys(allKeys)), run.Dir(), run.Dir())
	}
	hits, misses := runner.Cache().Stats()
	fmt.Printf("transpile cache: %d built, %d reused\n", misses, hits)
	printPassStats(runner.Cache())
	if tb, ok := runner.Backend().(backend.EngineCacheStatser); ok {
		eh, em, ev := tb.EngineCacheStats()
		fmt.Printf("engine cache: %d built, %d reused, %d evicted\n", em, eh, ev)
	}
	fmt.Printf("total wall time: %s\n", time.Since(start).Round(time.Second))
}

func pointRate(r experiment.PointResult) float64 {
	if r.Config.Model.TwoQubit > 0 {
		return r.Config.Model.TwoQubit
	}
	return r.Config.Model.OneQubit
}

// ---------------------------------------------------------------- claim-2q

// runClaim2Q reproduces the conclusions' quantitative claim: at the
// optimal depth, moving from 1:2 to 2:2 addition costs >50% accuracy at
// the current 2q error rate (1.0%) but only a few percent at the
// improved rate (0.7%).
func runClaim2Q(args []string) {
	sf := parseSweepFlags(args, "claim-2q")
	defer sf.prof.start()()
	if sf.shard.Enabled() {
		fmt.Fprintln(os.Stderr, "claim-2q does not support -shard (its summary needs the full grid); shard fig3/fig4/scaling/ablate-routing instead")
		exit(2)
	}
	geo := experiment.PaperAddGeometry()
	rates := []float64{0.007, 0.010}
	sf.rates1q, sf.rates2q = rates, rates
	sf.orderSets = [][2]int{{1, 2}, {2, 2}}
	var allKeys []string
	for _, orders := range sf.orderSets {
		pc := experiment.PanelConfig{Rates: rates, Depths: experiment.AddDepths}
		allKeys = append(allKeys, pc.Keys(fmt.Sprintf("claim2q_%d%d", orders[0], orders[1]))...)
	}
	run := sf.openRun("claim-2q", sf.spec("claim-2q", geo, experiment.AddDepths), allKeys)
	snapDir := ""
	if run != nil {
		snapDir = run.Dir()
	}
	defer sf.telem.start(snapDir)()
	ctx, stop := sweepContext()
	defer stop()
	runner := sf.runner()
	fmt.Println("E4 — superposition-order penalty vs 2q error rate (QFA n=8)")
	for _, orders := range sf.orderSets {
		pc := experiment.PanelConfig{
			Geometry: geo, Axis: experiment.Axis2Q,
			OrderX: orders[0], OrderY: orders[1],
			Rates: rates, Depths: experiment.AddDepths,
			Budget: sf.budget, Seed: sf.seed,
			Pipeline: sf.pipeline,
			Scorers:  sf.scorers,
		}
		var res experiment.PanelResult
		var err error
		if run != nil {
			label := fmt.Sprintf("claim2q_%d%d", orders[0], orders[1])
			res, err = experiment.RunPanelCheckpointCtx(ctx, runner, pc, label, run, nil)
		} else {
			res, err = experiment.RunPanelCtx(ctx, runner, pc, nil)
		}
		if err != nil {
			exitSweepErr(err, run)
		}
		for i, rate := range rates {
			best := 0.0
			bestD := 0
			for j, d := range experiment.AddDepths {
				if s := res.Points[i][j].Stats.SuccessRate; s > best {
					best, bestD = s, d
				}
			}
			fmt.Printf("  %d:%d at P2q=%.1f%%: best %.1f%% at depth %s\n",
				orders[0], orders[1], rate*100, best,
				experiment.DepthLabel(bestD, 8))
		}
	}
}

// ---------------------------------------------------------------- ablation

// runAblateAddCut sweeps the addition-step rotation cutoff the paper
// defers to future work (E6): full QFT, varying AddCut, at the
// current-hardware noise point.
func runAblateAddCut(args []string) {
	sf := parseSweepFlags(args, "ablate-addcut")
	defer sf.prof.start()()
	if sf.shard.Enabled() {
		fmt.Fprintln(os.Stderr, "ablate-addcut does not support -shard")
		exit(2)
	}
	defer sf.telem.start("")()
	ctx, stop := sweepContext()
	defer stop()
	runner := sf.runner()
	geo := experiment.PaperAddGeometry()
	fmt.Println("E6 — approximate addition-step ablation (QFA n=8, full AQFT, 2:2)")
	fmt.Printf("%-10s %12s %12s %12s\n", "addCut", "2q gates", "success@0%", "success@1%2q")
	for _, cut := range []int{1, 2, 3, 4, 6, 8} {
		acfg := arith.Config{Depth: qft.Full, AddCut: cut}
		var succ [2]float64
		var twoQ int
		for i, rate := range []float64{0, 0.01} {
			model := noise.Noiseless
			if rate > 0 {
				model = noise.PaperModel(0, rate)
			}
			pc := experiment.PointConfig{
				Geometry: geo, Depth: qft.Full, Model: model,
				OrderX: 2, OrderY: 2,
				Instances: sf.budget.Instances, Shots: sf.budget.Shots,
				Trajectories: sf.budget.Trajectories,
				RowSeed:      splitMix(sf.seed, 0x22), PointSeed: splitMix(sf.seed, uint64(cut)<<8|uint64(i)),
				Pipeline: sf.pipeline,
			}
			r, err := experiment.RunPointCfgCtx(ctx, runner, pc, acfg)
			if err != nil {
				exitSweepErr(err, nil)
			}
			succ[i] = r.Stats.SuccessRate
			twoQ = r.Paper2q
		}
		label := fmt.Sprintf("%d", cut)
		if cut >= 8 {
			label = "full"
		}
		fmt.Printf("%-10s %12d %11.1f%% %11.1f%%\n", label, twoQ, succ[0], succ[1])
	}
}

func splitMix(base, idx uint64) uint64 {
	z := base + 0x9e3779b97f4a7c15*(idx+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// ---------------------------------------------------------------- demo

func runDemo() {
	fmt.Println("demo — one 2:2 QFA instance at current-hardware noise (λ1=0.2%, λ2=1%)")
	geo := experiment.PaperAddGeometry()
	res := geo.BuildCircuit(3)
	engine := noise.NewEngine(res, noise.PaperModel(0.002, 0.01))
	st := sim.NewState(geo.TotalQubits)
	initial := make([]complex128, st.Dim())
	xs, ys := []int{19, 100}, []int{7, 200}
	amp := complex(0.5, 0)
	for _, x := range xs {
		for _, y := range ys {
			initial[x|y<<7] = amp
		}
	}
	dist := make([]float64, 256)
	rng := sim.NewSampler(12345, 678)
	st.SetAmplitudes(initial)
	engine.MixtureInto(dist, st, noise.MixtureOpts{Trajectories: 64, Measure: geo.OutReg}, rng.Rand())
	counts := rng.Counts(dist, 2048)
	correct := metrics.CorrectSums(xs, ys, 8)
	fmt.Printf("addends x∈%v, y∈%v; correct sums: %v\n", xs, ys, keys(correct))
	fmt.Println("top outputs:")
	for _, v := range metrics.TopOutcomes(counts, 8) {
		tag := " "
		if correct[v] {
			tag = "*"
		}
		fmt.Printf("  %s %3d: %4d counts  %s\n", tag, v, counts[v], strings.Repeat("#", counts[v]/16))
	}
	score := metrics.Score(counts, correct)
	fmt.Printf("instance success: %v (margin %d counts)\n", score.Success, score.Margin)
}

func keys(m map[int]bool) []int {
	var out []int
	for k := range m {
		out = append(out, k)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j-1] > out[j]; j-- {
			out[j-1], out[j] = out[j], out[j-1]
		}
	}
	return out
}
