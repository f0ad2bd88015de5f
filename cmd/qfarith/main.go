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
	"sort"
	"strconv"
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
	case "fig3", "fig4", "fig3-signed", "fig4-signed":
		runFigure(args, cmd)
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

// sweepCommon holds the flags every sweep command shares: execution
// backend and worker pool, durable run directory and shard, scorers,
// the compile pipeline, profiling and telemetry.
type sweepCommon struct {
	backend, rundir, shard, scorers *string
	passes, coupling                *string
	workers                         *int
	resume, compileDebug            *bool
	prof                            profiler
	telem                           telemetryFlags
}

func (c *sweepCommon) register(fs *flag.FlagSet) {
	c.backend = fs.String("backend", backend.DefaultName,
		"execution backend: "+strings.Join(backend.Names(), "|"))
	c.workers = fs.Int("workers", 0, "worker-pool size shared across points and instances (0 = GOMAXPROCS)")
	c.rundir = fs.String("rundir", "", "durable run directory: manifest + per-point checkpoint log; artifacts land here")
	c.resume = fs.Bool("resume", false, "resume the run in -rundir, skipping checkpointed points")
	c.shard = fs.String("shard", "", "run shard i/N of the grid (e.g. 0/3): only points whose key hashes to i mod N; requires -rundir, merge with merge-runs")
	c.scorers = fs.String("scorers", "margin",
		"success metrics, comma-separated (registered: "+strings.Join(metrics.ScorerNames(), ",")+"); margin is always on, extras append CSV columns")
	c.passes = fs.String("passes", compile.DefaultString(),
		"compilation pass list, comma-separated (known: "+strings.Join(compile.KnownPasses(), ",")+")")
	c.coupling = fs.String("coupling", "",
		"coupling map for the route pass: linear:N, grid:RxC, heavyhex27")
	c.compileDebug = fs.Bool("compile-debug", false,
		"verify statevector equivalence after every compilation pass (small registers only)")
	c.prof.register(fs)
	c.telem.register(fs)
}

// validate turns the parsed shared flags into a sweep's durable-run
// settings, exiting with status 2 on a malformed shard, -resume or
// -shard without -rundir, or an invalid pipeline, so errors surface
// before any sweeping starts. seed is what the manifest records.
func (c *sweepCommon) validate(seed uint64) runOpts {
	if *c.resume && *c.rundir == "" {
		fmt.Fprintln(os.Stderr, "-resume requires -rundir")
		exit(2)
	}
	shard, err := experiment.ParseShard(*c.shard)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		exit(2)
	}
	if shard.Enabled() && *c.rundir == "" {
		fmt.Fprintln(os.Stderr, "-shard requires -rundir (shard outputs are merged from run directories)")
		exit(2)
	}
	pcfg := compile.Config{
		Passes:   compile.ParsePasses(*c.passes),
		Coupling: *c.coupling,
		Debug:    *c.compileDebug,
	}
	if _, err := compile.New(pcfg); err != nil {
		fmt.Fprintln(os.Stderr, err)
		exit(2)
	}
	return runOpts{rundir: *c.rundir, resume: *c.resume, shard: shard,
		backend: *c.backend, seed: seed, pipeline: pcfg}
}

// extraScorers validates -scorers (experiment.ExtraScorers), exiting
// with status 2 on an unknown scorer.
func (c *sweepCommon) extraScorers() []string {
	extras, err := experiment.ExtraScorers(strings.Split(*c.scorers, ","))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		exit(2)
	}
	return extras
}

// runner builds the shared execution runner the sweep submits to: the
// selected backend behind one bounded worker pool.
func (c *sweepCommon) runner() *backend.Runner {
	b, err := backend.New(*c.backend)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		exit(2)
	}
	return backend.NewRunner(b, *c.workers)
}

// runOpts are the durable-run settings of a sweep command: where its
// run directory lives, whether to resume it, which shard of the grid
// it owns, and what its manifest records.
type runOpts struct {
	rundir   string
	resume   bool
	shard    experiment.Shard
	backend  string
	seed     uint64
	pipeline compile.Config
}

// sweepFlags are the parsed flags of a figure-style sweep command.
type sweepFlags struct {
	runOpts
	common sweepCommon
	// spec is the validated sweep identity (experiment.SweepRequest.Spec);
	// figure commands carry their geometry and depth legend in it.
	spec   experiment.SweepSpec
	outDir string
}

// budget is the sweep's statistical effort plus its worker bound.
func (sf *sweepFlags) budget() experiment.Budget {
	return experiment.Budget{Instances: sf.spec.Instances, Shots: sf.spec.Shots,
		Trajectories: sf.spec.Traj, Workers: *sf.common.workers}
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

// checkpoint returns run as a checkpoint store, or nil (not a typed
// nil) when the sweep is not durable.
func checkpoint(run *runstore.Run) experiment.CheckpointStore {
	if run == nil {
		return nil
	}
	return run
}

// openRun creates (or, with -resume, reopens and hash-verifies) the
// sweep's durable run directory and registers its checkpoint log with
// the exit path. Returns nil when -rundir is unset. keys is the full
// grid's checkpoint-key list (all shards record the same full list);
// it and the sweep spec are written as sidecars so merge-runs can
// detect gaps and regenerate final CSVs without re-deriving the grid.
func (ro runOpts) openRun(command string, spec any, keys []string) *runstore.Run {
	if ro.rundir == "" {
		return nil
	}
	hash, err := runstore.HashConfig(spec)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		exit(1)
	}
	var run *runstore.Run
	if ro.resume {
		run, err = runstore.Resume(ro.rundir, hash)
		if err == nil && run.Manifest().Shard != ro.shard.String() {
			fmt.Fprintf(os.Stderr, "run %s was started as shard %q, current -shard is %q (refusing to change the partition mid-run)\n",
				run.Dir(), run.Manifest().Shard, ro.shard.String())
			exit(1)
		}
	} else {
		run, err = runstore.Create(ro.rundir, runstore.Manifest{
			Command: command, ConfigHash: hash, Seed: ro.seed,
			Backend: ro.backend, Pipeline: ro.pipeline.Hash(),
			GitDescribe: runstore.GitDescribe("."),
			StartTime:   time.Now().UTC(),
			Shard:       ro.shard.String(),
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
	if ro.shard.Enabled() {
		telemetryShard(ro.shard)
	}
	switch {
	case ro.resume && ro.shard.Enabled():
		fmt.Printf("resuming shard %s run %s: %d checkpointed points restored\n", ro.shard, run.Dir(), run.Restored())
	case ro.resume:
		fmt.Printf("resuming run %s: %d checkpointed points restored\n", run.Dir(), run.Restored())
	case ro.shard.Enabled():
		fmt.Printf("run dir %s (config %s, shard %s of the grid)\n", run.Dir(), hash, ro.shard)
	default:
		fmt.Printf("run dir %s (config %s)\n", run.Dir(), hash)
	}
	return run
}

// parseList splits a comma-separated flag value and parses each token,
// exiting with status 2 on the first token parse refuses.
func parseList[T any](flagName, s string, parse func(string) (T, error)) []T {
	var out []T
	for _, tok := range strings.Split(s, ",") {
		v, err := parse(strings.TrimSpace(tok))
		if err != nil {
			fmt.Fprintf(os.Stderr, "bad %s value %q\n", flagName, tok)
			exit(2)
		}
		out = append(out, v)
	}
	return out
}

func parseFloat(s string) (float64, error) { return strconv.ParseFloat(s, 64) }

// parseSweepFlags parses a figure-style sweep command's flags and
// validates them through experiment.SweepRequest.Spec, the validator
// qfarithd's job API shares; any refusal exits with status 2.
func parseSweepFlags(args []string, name string) *sweepFlags {
	fs := flag.NewFlagSet(name, flag.ExitOnError)
	req := experiment.SweepRequest{Command: name}
	fs.StringVar(&req.Budget, "budget", "standard", "quick|standard|full")
	fs.IntVar(&req.Instances, "instances", 0, "override instance count")
	fs.IntVar(&req.Shots, "shots", 0, "override shots per instance")
	fs.IntVar(&req.Trajectories, "traj", 0, "override conditional trajectories per instance")
	fs.Uint64Var(&req.Seed, "seed", 20260704, "base RNG seed")
	fs.StringVar(&req.Axis, "axis", "both", "1q|2q|both")
	fs.StringVar(&req.Orders, "orders", "1:1,1:2,2:2", "comma-separated operand orders")
	rates := fs.String("rates", "", "override error-rate grid, comma-separated percentages (e.g. 1,2,3,5)")
	sf := &sweepFlags{}
	fs.StringVar(&sf.outDir, "out", "results", "output directory for CSV files")
	sf.common.register(fs)
	fs.Parse(args)
	sf.runOpts = sf.common.validate(req.Seed)
	req.Backend, req.Pipeline = sf.backend, sf.pipeline
	req.Scorers = strings.Split(*sf.common.scorers, ",")
	if *rates != "" {
		req.RatesPct = parseList("-rates", *rates, parseFloat)
	}
	var err error
	if sf.spec, err = req.Spec(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		exit(2)
	}
	return sf
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

func runFigure(args []string, name string) {
	sf := parseSweepFlags(args, name)
	defer sf.common.prof.start()()
	// The panel set — and with it the full grid's checkpoint keys — is
	// fixed before anything runs, so the key list can be recorded for
	// merge-time gap detection and shard ownership filtering. The
	// enumeration is shared with merge-runs and the qfarithd executor
	// (experiment.SweepSpec.Panels), so every consumer agrees on panel
	// labels, grid keys, and seeds.
	spec := sf.spec
	panels, allKeys := spec.Panels(sf.pipeline, *sf.common.workers)
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
	defer sf.common.telem.start(snapDir)()
	ctx, stop := sweepContext()
	defer stop()
	runner := sf.common.runner()
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
		res, err := experiment.RunPanel(ctx, runner, pc, experiment.PanelOptions{
			Label: label, Shard: sf.shard, Checkpoint: checkpoint(run), Progress: progress,
		})
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
	defer sf.common.prof.start()()
	if sf.shard.Enabled() {
		fmt.Fprintln(os.Stderr, "claim-2q does not support -shard (its summary needs the full grid); shard fig3/fig4/scaling/ablate-routing instead")
		exit(2)
	}
	spec := sf.spec
	spec.Geometry, spec.Depths = experiment.PaperAddGeometry(), experiment.AddDepths
	rates := []float64{0.007, 0.010}
	spec.Rates1Q, spec.Rates2Q = rates, rates
	spec.Orders = [][2]int{{1, 2}, {2, 2}}
	var allKeys []string
	for _, orders := range spec.Orders {
		pc := experiment.PanelConfig{Rates: rates, Depths: spec.Depths}
		allKeys = append(allKeys, pc.Keys(fmt.Sprintf("claim2q_%d%d", orders[0], orders[1]))...)
	}
	run := sf.openRun("claim-2q", spec, allKeys)
	snapDir := ""
	if run != nil {
		snapDir = run.Dir()
	}
	defer sf.common.telem.start(snapDir)()
	ctx, stop := sweepContext()
	defer stop()
	runner := sf.common.runner()
	fmt.Println("E4 — superposition-order penalty vs 2q error rate (QFA n=8)")
	for _, orders := range spec.Orders {
		pc := experiment.PanelConfig{
			Geometry: spec.Geometry, Axis: experiment.Axis2Q,
			OrderX: orders[0], OrderY: orders[1],
			Rates: rates, Depths: spec.Depths,
			Budget: sf.budget(), Seed: spec.Seed,
			Pipeline: sf.pipeline,
			Scorers:  spec.Scorers,
		}
		res, err := experiment.RunPanel(ctx, runner, pc, experiment.PanelOptions{
			Label:      fmt.Sprintf("claim2q_%d%d", orders[0], orders[1]),
			Checkpoint: checkpoint(run),
		})
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
	defer sf.common.prof.start()()
	if sf.shard.Enabled() {
		fmt.Fprintln(os.Stderr, "ablate-addcut does not support -shard")
		exit(2)
	}
	defer sf.common.telem.start("")()
	ctx, stop := sweepContext()
	defer stop()
	runner := sf.common.runner()
	geo := experiment.PaperAddGeometry()
	fmt.Println("E6 — approximate addition-step ablation (QFA n=8, full AQFT, 2:2)")
	fmt.Printf("%-10s %12s %12s %12s\n", "addCut", "2q gates", "success@0%", "success@1%2q")
	b := sf.budget()
	for _, cut := range []int{1, 2, 3, 4, 6, 8} {
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
				Instances: b.Instances, Shots: b.Shots,
				Trajectories: b.Trajectories,
				RowSeed:      experiment.SplitSeed(sf.seed, 0x22), PointSeed: experiment.SplitSeed(sf.seed, uint64(cut)<<8|uint64(i)),
				Pipeline: sf.pipeline,
			}
			r, err := experiment.RunPoint(ctx, runner, pc, experiment.PointOptions{AddCut: cut})
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
	sort.Ints(out)
	return out
}
