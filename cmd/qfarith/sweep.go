package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"time"

	"qfarith/internal/backend"
	"qfarith/internal/compile"
	"qfarith/internal/experiment"
	"qfarith/internal/metrics"
	"qfarith/internal/runstore"
)

// sweepFlags are a sweep subcommand's parsed flags: the validated
// sweep identity and how to run it.
type sweepFlags struct {
	spec     experiment.SweepSpec
	pipeline compile.Config
	backend  backend.Backend
	workers  int
	rundir   string
	outDir   string
	resume   bool
	shard    experiment.Shard
	prof     profiler
	telem    telemetryFlags
}

// errFlagSet marks a flag error the flag set has already reported,
// with its usage, on stderr.
var errFlagSet = errors.New("bad flags")

// parseSweep parses the flags of sweep subcommand name (one of
// experiment.SweepCommands) and validates them through
// experiment.SweepRequest.Spec, the validator qfarithd's job API
// shares. Every error is a usage error; flag.ErrHelp means -h.
//
// Each command keeps its own flags. The figure commands choose their
// grid (-axis, -orders, -rates); claim-2q and ablate-addcut take a
// budget and seed; scaling (-n, -rates) and ablate-routing (-p2) take
// instance counts instead of a budget and seed their points with fixed
// constants. ablate-addcut has no -out, -rundir, -resume, -shard or
// -scorers, and scaling and ablate-routing no -out.
func parseSweep(name string, args []string, stderr io.Writer) (*sweepFlags, error) {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	req := experiment.SweepRequest{Command: name}
	var rates, widths string
	_, _, figure := experiment.FigureSweep(name)
	switch name {
	case "scaling":
		fs.IntVar(&req.Instances, "instances", 12, "instances per point")
		fs.IntVar(&req.Trajectories, "traj", 16, "trajectories per instance")
		fs.IntVar(&req.Shots, "shots", 2048, "shots per instance")
		fs.StringVar(&widths, "n", "4,6,8,10", "comma-separated sum-register widths")
		fs.StringVar(&rates, "rates", "1,2,3", "comma-separated 2q error percentages")
	case "ablate-routing":
		fs.IntVar(&req.Instances, "instances", 30, "instances per point")
		fs.IntVar(&req.Trajectories, "traj", 24, "trajectories per instance")
		req.P2 = fs.Float64("p2", 0.005, "2q depolarizing rate")
	default:
		fs.StringVar(&req.Budget, "budget", "standard", "quick|standard|full")
		fs.IntVar(&req.Instances, "instances", 0, "override instance count")
		fs.IntVar(&req.Shots, "shots", 0, "override shots per instance")
		fs.IntVar(&req.Trajectories, "traj", 0, "override conditional trajectories per instance")
		fs.Uint64Var(&req.Seed, "seed", 20260704, "base RNG seed")
	}
	if figure {
		fs.StringVar(&req.Axis, "axis", "both", "1q|2q|both")
		fs.StringVar(&req.Orders, "orders", "1:1,1:2,2:2", "comma-separated operand orders")
		fs.StringVar(&rates, "rates", "", "override error-rate grid, comma-separated percentages (e.g. 1,2,3,5)")
	}
	sf := &sweepFlags{}
	if figure || name == "claim-2q" {
		fs.StringVar(&sf.outDir, "out", "out", "output directory for CSV files")
	}
	shard, scorers := "", "margin"
	if name != "ablate-addcut" {
		fs.StringVar(&sf.rundir, "rundir", "", "durable run directory: manifest + per-point checkpoint log; artifacts land here")
		fs.BoolVar(&sf.resume, "resume", false, "resume the run in -rundir, skipping checkpointed points")
		fs.StringVar(&shard, "shard", "", "run shard i/N of the grid (e.g. 0/3): only points whose key hashes to i mod N; requires -rundir, merge with merge-runs")
		fs.StringVar(&scorers, "scorers", "margin",
			"success metrics, comma-separated (registered: "+strings.Join(metrics.ScorerNames(), ",")+"); margin is always on, extras append CSV columns")
	}
	backendName := fs.String("backend", backend.DefaultName, "execution backend: "+strings.Join(backend.Names(), "|"))
	fs.IntVar(&sf.workers, "workers", 0, "worker-pool size shared across points and instances (0 = GOMAXPROCS)")
	passes := fs.String("passes", compile.DefaultString(),
		"compilation pass list, comma-separated (known: "+strings.Join(compile.KnownPasses(), ",")+")")
	fs.StringVar(&sf.pipeline.Coupling, "coupling", "", "coupling map for the route pass: linear:N, grid:RxC, heavyhex27")
	fs.BoolVar(&sf.pipeline.Debug, "compile-debug", false,
		"verify statevector equivalence after every compilation pass (small registers only)")
	sf.prof.register(fs)
	sf.telem.register(fs)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil, err
		}
		return nil, fmt.Errorf("%w: %w", errFlagSet, err)
	}

	var err error
	if sf.resume && sf.rundir == "" {
		return nil, errors.New("-resume requires -rundir")
	}
	if sf.shard, err = experiment.ParseShard(shard); err != nil {
		return nil, err
	}
	if sf.shard.Enabled() && sf.rundir == "" {
		return nil, errors.New("-shard requires -rundir (shard outputs are merged from run directories)")
	}
	if sf.shard.Enabled() && name == "claim-2q" {
		return nil, errors.New("claim-2q does not support -shard (its summary needs the full grid); shard fig3/fig4/scaling/ablate-routing instead")
	}
	sf.pipeline.Passes = compile.ParsePasses(*passes)
	if _, err := compile.New(sf.pipeline); err != nil {
		return nil, err
	}
	if sf.backend, err = backend.New(*backendName); err != nil {
		return nil, err
	}
	if rates != "" {
		if req.RatesPct, err = parseList("-rates", rates, func(s string) (float64, error) { return strconv.ParseFloat(s, 64) }); err != nil {
			return nil, err
		}
	}
	if widths != "" {
		if req.Widths, err = parseList("-n", widths, strconv.Atoi); err != nil {
			return nil, err
		}
	}
	req.Backend, req.Pipeline, req.Scorers = *backendName, sf.pipeline, strings.Split(scorers, ",")
	if sf.spec, err = req.Spec(); err != nil {
		return nil, err
	}
	return sf, nil
}

// parseList splits a comma-separated flag value and parses each token.
func parseList[T any](flagName, s string, parse func(string) (T, error)) ([]T, error) {
	var out []T
	for _, tok := range strings.Split(s, ",") {
		v, err := parse(strings.TrimSpace(tok))
		if err != nil {
			return nil, fmt.Errorf("bad %s value %q", flagName, tok)
		}
		out = append(out, v)
	}
	return out, nil
}

// runSweep runs sweep subcommand name: parse → spec → runstore.Open →
// experiment.RunSweep → print, the path qfarithd's jobs take from the
// spec on. CSVs land in the run directory, or in -out without one. The
// report goes to stdout and diagnostics to stderr. It returns the exit
// status: 2 for a usage error, 1 for a failed sweep, 130 when
// interrupted.
func runSweep(name string, args []string, stdout, stderr io.Writer) int {
	sf, err := parseSweep(name, args, stderr)
	switch {
	case errors.Is(err, flag.ErrHelp):
		return 0
	case errors.Is(err, errFlagSet):
		return 2
	case err != nil:
		fmt.Fprintln(stderr, err)
		return 2
	}
	defer sf.prof.start()()
	runner := backend.NewRunner(sf.backend, sf.workers)
	_, _, figure := experiment.FigureSweep(name)
	if figure {
		fmt.Fprintf(stdout, "backend=%s workers=%d\n", runner.Backend().Name(), runner.Workers())
	}
	_, keys := sf.spec.Panels(sf.pipeline, 0)
	run, err := sf.open(stdout, keys)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	if run != nil {
		defer run.Close()
	}
	defer sf.telem.start(run, stdout)()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	start := time.Now()
	var progress func(experiment.SweepProgress)
	if figure {
		tracker := newSweepTracker()
		defer tracker.stop()
		progress = func(sp experiment.SweepProgress) {
			tracker.observe(sp)
			p := sp.Cell
			if p.FromCheckpoint {
				// open already announced the restored total; a line per
				// restored cell would just scroll the terminal.
				return
			}
			fmt.Fprintf(stdout, "  [%s %3d/%d] rate=%.2f%% d=%-4s -> %.1f%% success (elapsed %s)\n",
				sp.Panel, p.Done, p.Total, p.Point.Config.SweptRate()*100,
				experiment.DepthLabel(p.Point.Config.Depth, 8),
				p.Point.Stats.SuccessRate, time.Since(start).Round(time.Second))
		}
	}
	results, err := experiment.RunSweep(ctx, runner, sf.spec, experiment.SweepOptions{
		Pipeline: sf.pipeline, Workers: sf.workers,
		Run: run, OutDir: sf.outDir, Progress: progress,
	})
	switch {
	case errors.Is(err, context.Canceled) && run != nil:
		fmt.Fprintf(stderr, "interrupted — completed points checkpointed in %s; rerun with -rundir %s -resume\n", run.Dir(), run.Dir())
		return 130
	case errors.Is(err, context.Canceled):
		fmt.Fprintln(stderr, "interrupted — sweep cancelled mid-grid, partial results discarded (use -rundir for durable runs)")
		return 130
	case err != nil:
		fmt.Fprintln(stderr, err)
		return 1
	}
	if sf.shard.Enabled() {
		fmt.Fprintf(stdout, "shard %s complete: %d points checkpointed in %s; merge with `qfarith merge-runs -out MERGED %s ...`\n",
			sf.shard, len(sf.shard.OwnedKeys(keys)), run.Dir(), run.Dir())
	} else {
		printReport(stdout, sf.spec, results)
	}
	if figure {
		printStats(stdout, runner, start)
	}
	return 0
}

// open claims the sweep's run directory through runstore.Open —
// created, or with -resume reopened and hash-verified — and announces
// it. keys is the full grid's checkpoint-key list. Returns nil when
// -rundir is unset.
func (sf *sweepFlags) open(stdout io.Writer, keys []string) (*runstore.Run, error) {
	if sf.rundir == "" {
		return nil, nil
	}
	m := runstore.Manifest{Command: sf.spec.Command, Seed: sf.spec.Seed, Backend: sf.spec.Backend,
		Pipeline: sf.spec.Pipeline, Shard: sf.shard.String()}
	if !sf.resume {
		m.GitDescribe = runstore.GitDescribe(".")
	}
	run, err := runstore.Open(sf.rundir, m, sf.spec, keys, sf.resume)
	if err != nil {
		return nil, err
	}
	if sf.shard.Enabled() {
		telemetryShard(sf.shard)
	}
	switch {
	case sf.resume && sf.shard.Enabled():
		fmt.Fprintf(stdout, "resuming shard %s run %s: %d checkpointed points restored\n", sf.shard, run.Dir(), run.Restored())
	case sf.resume:
		fmt.Fprintf(stdout, "resuming run %s: %d checkpointed points restored\n", run.Dir(), run.Restored())
	case sf.shard.Enabled():
		fmt.Fprintf(stdout, "run dir %s (config %s, shard %s of the grid)\n", run.Dir(), run.Manifest().ConfigHash, sf.shard)
	default:
		fmt.Fprintf(stdout, "run dir %s (config %s)\n", run.Dir(), run.Manifest().ConfigHash)
	}
	return run, nil
}

// printReport renders a finished, unsharded sweep from its panels, in
// Panels order: a figure's tables and plots, or the summary table of
// claim-2q (E4), scaling (E10), ablate-routing (E7) or ablate-addcut
// (E6).
func printReport(w io.Writer, spec experiment.SweepSpec, results []experiment.PanelResult) {
	switch spec.Command {
	case "claim-2q":
		// The conclusions' claim: at the optimal depth, moving from 1:2
		// to 2:2 addition costs >50% accuracy at the current 2q error
		// rate (1.0%) but only a few percent at the improved one (0.7%).
		fmt.Fprintln(w, "E4 — superposition-order penalty vs 2q error rate (QFA n=8)")
		for _, res := range results {
			for _, o := range res.OptimalDepths() {
				fmt.Fprintf(w, "  %d:%d at P2q=%.1f%%: best %.1f%% at depth %s\n",
					res.Config.OrderX, res.Config.OrderY, o.Rate*100, o.Success, experiment.DepthLabel(o.Depth, 8))
			}
		}
	case "scaling":
		// The paper's "larger n" future work: how the optimal depth and
		// the success rate move with the sum-register width.
		fmt.Fprintf(w, "E10 — register-width scaling (1:2 QFA, %d instances, %d traj)\n", spec.Instances, spec.Traj)
		fmt.Fprintf(w, "%-4s %-8s %-28s %-10s %-10s\n", "n", "λ2q%", "success by depth 1,2,3,…,full", "best", "log2(n)")
		for _, res := range results {
			n := res.Config.Geometry.YBits
			for i, o := range res.OptimalDepths() {
				cells := make([]string, len(res.Points[i]))
				for j, p := range res.Points[i] {
					cells[j] = fmt.Sprintf("%.0f", p.Stats.SuccessRate)
				}
				fmt.Fprintf(w, "%-4d %-8.1f %-28s %-10s %-10.1f\n", n, o.Rate*100,
					strings.Join(cells, "/"), experiment.DepthLabel(o.Depth, n), math.Log2(float64(n)))
			}
		}
	case "ablate-routing":
		// How much success the paper's all-to-all idealization hides:
		// routing SWAPs are three CX each.
		fmt.Fprintf(w, "E7 — qubit-connectivity ablation (QFA n=8, d=3, 1:2, λ1=0.2%%, λ2=%.2f%%)\n", spec.Rates2Q[0]*100)
		fmt.Fprintf(w, "%-22s %10s %10s %12s %12s\n", "topology", "CX", "swaps", "w0", "success")
		base := results[0].Points[0][0]
		for k, res := range results {
			r := res.Points[0][0]
			name, swaps := experiment.RoutingTopologies[k].Name, strconv.Itoa((r.Native2q-base.Native2q)/3)
			if k == 0 {
				name, swaps = name+" (paper)", "-"
			}
			fmt.Fprintf(w, "%-22s %10d %10s %12.4f %11.1f%%\n", name, r.Native2q, swaps, r.NoErrorProb, r.Stats.SuccessRate)
		}
	case "ablate-addcut":
		// The addition-step rotation cutoff the paper defers to future
		// work, noiseless and at the current-hardware 2q rate.
		fmt.Fprintln(w, "E6 — approximate addition-step ablation (QFA n=8, full AQFT, 2:2)")
		fmt.Fprintf(w, "%-10s %12s %12s %12s\n", "addCut", "2q gates", "success@0%", "success@1%2q")
		for k, res := range results {
			label := strconv.Itoa(spec.AddCuts[k])
			if spec.AddCuts[k] >= 8 {
				label = "full"
			}
			clean, noisy := res.Points[0][0], res.Points[1][0]
			fmt.Fprintf(w, "%-10s %12d %11.1f%% %11.1f%%\n", label, noisy.Paper2q, clean.Stats.SuccessRate, noisy.Stats.SuccessRate)
		}
	default:
		for _, res := range results {
			c := res.Config
			fmt.Fprintf(w, "== panel %s ==\n", experiment.PanelLabel(spec.Command, c.Axis, c.OrderX, c.OrderY))
			fmt.Fprintln(w, res.Table())
			fmt.Fprintln(w, res.Plot())
		}
	}
}

// printStats renders a figure sweep's cache and per-pass compilation
// summary, summed over every distinct circuit it compiled, and its
// wall time.
func printStats(w io.Writer, runner *backend.Runner, start time.Time) {
	c := runner.Cache()
	hits, misses := c.Stats()
	fmt.Fprintf(w, "transpile cache: %d built, %d reused\n", misses, hits)
	if stats := c.PassStats(); len(stats) > 0 {
		fmt.Fprintln(w, "compilation passes (summed over compiled circuits):")
		fmt.Fprintf(w, "  %-18s %8s %8s %8s %8s %8s %8s %8s %10s\n",
			"pass", "ops", "ops'", "1q", "1q'", "2q", "2q'", "depthΔ", "wall")
		for _, st := range stats {
			extra := ""
			if st.Segments > 0 {
				extra = fmt.Sprintf("  segments=%d", st.Segments)
			}
			if st.Swaps > 0 {
				extra += fmt.Sprintf("  swaps=%d", st.Swaps)
			}
			fmt.Fprintf(w, "  %-18s %8d %8d %8d %8d %8d %8d %8d %10s%s\n",
				st.Pass, st.OpsBefore, st.OpsAfter, st.OneQBefore, st.OneQAfter,
				st.TwoQBefore, st.TwoQAfter, st.DepthAfter-st.DepthBefore,
				st.Wall.Round(time.Microsecond), extra)
		}
	}
	if tb, ok := runner.Backend().(backend.EngineCacheStatser); ok {
		eh, em, ev := tb.EngineCacheStats()
		fmt.Fprintf(w, "engine cache: %d built, %d reused, %d evicted\n", em, eh, ev)
	}
	fmt.Fprintf(w, "total wall time: %s\n", time.Since(start).Round(time.Second))
}
