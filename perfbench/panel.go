package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"path/filepath"
	"time"

	"qfarith/internal/arith"
	"qfarith/internal/backend"
	"qfarith/internal/compile"
	"qfarith/internal/experiment"
	"qfarith/internal/runstore"
	"qfarith/internal/server"
	"qfarith/internal/telemetry"
)

// panelWorkload is one figure panel run the way `qfarith figN -axis 2q
// -orders X:Y -rundir DIR` runs it: SweepSpec.Panels enumerates the
// grid, RunPanelCheckpointCtx computes it into a runstore run
// directory, and WriteArtifact writes the CSV.
type panelWorkload struct {
	// req names the panel's sweep as a daemon job request would; its
	// seed is set per panel.
	req server.JobRequest
	// digest is the sha256 of the first panel's CSV at defaultSeed.
	digest string
}

// spec is the sweep the CLI builds for this panel at the given seed.
func (w panelWorkload) spec(seed uint64) (experiment.SweepSpec, error) {
	req := w.req
	req.Seed = seed
	return req.Spec(backend.DefaultName)
}

// instancesPerPanel is the operand-instance count of one panel.
func (w panelWorkload) instancesPerPanel() int {
	_, depths, _ := experiment.FigureSweep(w.req.Command)
	return len(experiment.PaperRates2Q) * len(depths) * w.req.Instances
}

// compileProbe summarizes compiling every circuit of the workload.
type compileProbe struct {
	circuits  int
	busy      time.Duration
	nativeOps int
	segments  int
}

// setup builds the runner, compiles every circuit of the workload
// through the default pass pipeline, and runs one single-instance,
// single-trajectory panel through the full CLI path into its own run
// directory. That panel fills the runner's transpile cache and the
// backend's engine cache for every grid cell, which a sweep otherwise
// pays on its first instances.
func (w panelWorkload) setup(ctx context.Context, b backend.Backend, dir string, seed uint64) (*backend.Runner, compileProbe, error) {
	runner := backend.NewRunner(b, workers)
	probe, err := compileAll(w.req.Command)
	if err != nil {
		return nil, probe, err
	}
	warm := w
	warm.req.Instances, warm.req.Trajectories = 1, 1
	if _, _, err := warm.sweep(ctx, runner, dir, splitmix(seed, warmSalt), "", nil, 0); err != nil {
		return nil, probe, fmt.Errorf("warm-up panel: %w", err)
	}
	return runner, probe, nil
}

// compileAll compiles every circuit of a figure command's depth legend
// through the default pass pipeline, timing each call.
func compileAll(command string) (compileProbe, error) {
	var probe compileProbe
	geo, depths, _ := experiment.FigureSweep(command)
	for _, d := range depths {
		t0 := time.Now()
		art, err := geo.BuildArtifact(arith.Config{Depth: d, AddCut: arith.FullAdd}, compile.Config{})
		probe.busy += time.Since(t0)
		if err != nil {
			return probe, fmt.Errorf("compile %s depth %d: %w", command, d, err)
		}
		probe.circuits++
		probe.nativeOps += len(art.Result.Ops)
		for _, st := range art.Stats {
			probe.segments += st.Segments
		}
	}
	return probe, nil
}

// warmSalt separates the warm-up panel's seed from the timed panels'.
const warmSalt = 0x5e7a9

// sweep runs the panel's sweep at the given seed into a fresh run
// directory exactly as the CLI does and checks the CSV it wrote. It returns the instance count and each
// grid cell's latency: the time from the sweep's start until the cell
// was checkpointed and reported, which is when a CLI user sees it.
func (w panelWorkload) sweep(ctx context.Context, runner *backend.Runner, dir string, seed uint64, digest string, tr *tracer, group int64) (int, []float64, error) {
	spec, err := w.spec(seed)
	if err != nil {
		return 0, nil, err
	}
	start := time.Now()
	var cells []float64
	progress := func(experiment.Progress) { cells = append(cells, time.Since(start).Seconds()) }
	root := tr.open("panel", 0, group)
	defer root.close()
	panels, keys := spec.Panels(compile.Config{}, workers)
	cs := tr.open("runstore.create", root.id(), group)
	hash, err := runstore.HashConfig(spec)
	if err != nil {
		return 0, nil, err
	}
	run, err := runstore.Create(dir, runstore.Manifest{
		Command: spec.Command, ConfigHash: hash, Seed: spec.Seed,
		Backend: spec.Backend, Pipeline: spec.Pipeline,
		GitDescribe: runstore.GitDescribe("."),
		StartTime:   time.Now().UTC(),
	})
	if err != nil {
		return 0, nil, err
	}
	defer run.Close()
	if err := runstore.WriteSpec(dir, spec); err != nil {
		return 0, nil, err
	}
	if err := runstore.WriteExpectedKeys(dir, keys); err != nil {
		return 0, nil, err
	}
	cs.close()
	instances := 0
	for _, pj := range panels {
		ps := tr.open("experiment.panel", root.id(), group)
		res, err := experiment.RunPanelCheckpointCtx(ctx, runner, pj.Config, pj.Label,
			tracedStore{run: run, tr: tr, parent: ps.id(), group: group}, progress)
		ps.close()
		if err != nil {
			return 0, nil, fmt.Errorf("panel %s: %w", pj.Label, err)
		}
		path := filepath.Join(dir, pj.Label+".csv")
		as := tr.open("runstore.artifact", root.id(), group)
		err = runstore.WriteArtifact(path, []byte(res.CSV()))
		as.close()
		if err != nil {
			return 0, nil, err
		}
		data, err := runstore.ReadArtifact(path)
		if err != nil {
			return 0, nil, err
		}
		if err := checkPanelCSV(string(data), pj.Config, digest); err != nil {
			return 0, nil, fmt.Errorf("panel %s seed %d: %w", pj.Label, spec.Seed, err)
		}
		instances += len(pj.Config.Rates) * len(pj.Config.Depths) * pj.Config.Budget.Instances
	}
	if err := run.Close(); err != nil {
		return 0, nil, err
	}
	// The CLI snapshots telemetry beside the artifacts at exit.
	if err := telemetry.Default().WriteSnapshotFile(filepath.Join(dir, "telemetry.json")); err != nil {
		return 0, nil, err
	}
	return instances, cells, nil
}

// tracedStore is the run's checkpoint log with AppendPoint timed.
type tracedStore struct {
	run    *runstore.Run
	tr     *tracer
	parent int64
	group  int64
}

func (s tracedStore) LookupPoint(key string) (json.RawMessage, bool) { return s.run.LookupPoint(key) }

func (s tracedStore) AppendPoint(key string, payload any) error {
	sp := s.tr.open("runstore.append", s.parent, s.group)
	defer sp.close()
	return s.run.AppendPoint(key, payload)
}

// panelSample is one timed panel.
type panelSample struct {
	instances int
	wall      time.Duration
	cpu       time.Duration
	cells     []float64
	err       error
}

// timedPanels runs panels k = 0, 1, ... with seeds derived from the
// workload seed until stop says enough, calling between (when not nil)
// after each panel, outside its timing. Panel 0 at defaultSeed must
// reproduce the pinned CSV digest. A failed panel is recorded, not
// fatal: its instances count as attempted and not ok.
func (w panelWorkload) timedPanels(ctx context.Context, runner *backend.Runner, dir string, seed uint64, tr *tracer, stop func(done int, elapsed time.Duration) bool, between func(k int) error) ([]panelSample, error) {
	var out []panelSample
	start := time.Now()
	for k := 0; ctx.Err() == nil && !stop(k, time.Since(start)); k++ {
		digest := ""
		if k == 0 && seed == defaultSeed {
			digest = w.digest
		}
		t0, c0 := time.Now(), cpuTime()
		n, cells, err := w.sweep(ctx, runner, filepath.Join(dir, fmt.Sprintf("panel-%03d", k)), splitmix(seed, uint64(k)), digest, tr, int64(k+1))
		s := panelSample{instances: n, wall: time.Since(t0), cpu: cpuTime() - c0, cells: cells, err: err}
		if err != nil {
			// A failed panel's cells count as never delivered.
			s.instances = w.instancesPerPanel()
			s.cells = make([]float64, s.instances/w.req.Instances)
			for i := range s.cells {
				s.cells[i] = math.Inf(1)
			}
		}
		out = append(out, s)
		if between != nil {
			if err := between(k); err != nil {
				return out, err
			}
		}
	}
	return out, nil
}

// panelTally folds panel samples into attempted/failed instance counts,
// the throughput and CPU cost of the ok panels, and the cell latencies
// of every panel. Throughput is the lower quartile of the per-panel
// throughputs and CPU cost the upper quartile of the per-panel costs:
// on a shared host, quiet spells when other tenants idle speed single
// panels up by as much as 40%, and the slow-side quartile follows the
// program's speed under the host's usual load instead of those spells.
type panelTally struct {
	attempted, failed int
	ips, cpuPer       float64
	wall              time.Duration
	cells             []float64
	err               error
}

func tally(samples []panelSample) panelTally {
	var t panelTally
	var rates, costs []float64
	for _, s := range samples {
		t.attempted += s.instances
		t.wall += s.wall
		t.cells = append(t.cells, s.cells...)
		if s.err != nil {
			t.failed += s.instances
			if t.err == nil {
				t.err = s.err
			}
			continue
		}
		rates = append(rates, float64(s.instances)/s.wall.Seconds())
		costs = append(costs, s.cpu.Seconds()/float64(s.instances))
	}
	t.ips, t.cpuPer = lowerQuartile(rates), upperQuartile(costs)
	return t
}

// runPanel measures a panel workload. Untraced, it sets up once, then
// runs panels for the given seconds with one more full set-up after
// each panel, so setup_s is the median of set-ups spread over the whole
// run rather than clustered at its start. Traced, it first measures an
// untraced baseline for half the time, then sets up once more with
// Backend.Run timed and runs a fixed tracedPanels panels, so every
// count repeats exactly at a fixed seed.
func (w panelWorkload) runPanel(ctx context.Context, o options) (result, error) {
	if !o.trace {
		var setups []float64
		setUp := func(k int) (*backend.Runner, error) {
			t0 := time.Now()
			b, err := backend.New(backend.DefaultName)
			if err != nil {
				return nil, err
			}
			r, _, err := w.setup(ctx, b, filepath.Join(o.workdir, fmt.Sprintf("setup-%03d", k)), o.seed)
			if err != nil {
				return nil, fmt.Errorf("setup: %w", err)
			}
			setups = append(setups, time.Since(t0).Seconds())
			return r, nil
		}
		runner, err := setUp(0)
		if err != nil {
			return result{}, err
		}
		samples, err := w.timedPanels(ctx, runner, o.workdir, o.seed, nil, func(done int, el time.Duration) bool {
			return done >= minPanels && el >= o.seconds
		}, func(k int) error {
			_, err := setUp(k + 1)
			return err
		})
		if err != nil {
			return result{}, err
		}
		t := tally(samples)
		logSetups(setups)
		res := result{attempted: t.attempted, failed: t.failed, err: t.err}
		res.add("setup_s", median(setups), "s")
		res.add("instances_per_s", t.ips, "1/s")
		res.add("cpu_s_per_instance", t.cpuPer, "s")
		res.add("peak_rss_mb", peakRSSMB(), "MB")
		res.add("ok_frac", okFrac(t.attempted, t.failed), "ratio")
		res.addLatency(t.cells, t.wall)
		return res, nil
	}

	b, err := backend.New(backend.DefaultName)
	if err != nil {
		return result{}, err
	}
	runner, _, err := w.setup(ctx, b, filepath.Join(o.workdir, "setup-base"), o.seed)
	if err != nil {
		return result{}, fmt.Errorf("setup: %w", err)
	}
	samples, err := w.timedPanels(ctx, runner, filepath.Join(o.workdir, "base"), o.seed, nil, func(done int, el time.Duration) bool {
		return done >= minPanels && el >= o.seconds/2
	}, nil)
	if err != nil {
		return result{}, err
	}
	base := tally(samples)

	tr := newTracer()
	inner, err := backend.New(backend.DefaultName)
	if err != nil {
		return result{}, err
	}
	runner, probe, err := w.setup(ctx, &timedBackend{Backend: inner, tr: tr}, filepath.Join(o.workdir, "setup-traced"), o.seed)
	if err != nil {
		return result{}, fmt.Errorf("traced setup: %w", err)
	}
	tr.reset()
	before := takeSnap(telemetry.Default())
	t0 := time.Now()
	samples, err = w.timedPanels(ctx, runner, filepath.Join(o.workdir, "traced"), o.seed, tr, func(done int, _ time.Duration) bool {
		return done >= tracedPanels
	}, nil)
	if err != nil {
		return result{}, err
	}
	traced := tally(samples)
	wall := time.Since(t0)
	delta := takeSnap(telemetry.Default()).since(before)

	spans := tr.snapshot()
	adopt(spans, "experiment.panel", "backend.run")
	res := result{attempted: base.attempted + traced.attempted, failed: base.failed + traced.failed, err: base.err}
	if res.err == nil {
		res.err = traced.err
	}
	layerMetrics{probe: probe, spans: spans, delta: delta, wall: wall}.addCommon(&res)
	res.add("experiment.panel_s", sum(durations(byName(spans, "experiment.panel"))), "s")
	res.add("runstore.append_s", sum(durations(byName(spans, "runstore.append"))), "s")
	res.add("runstore.create_s", sum(durations(byName(spans, "runstore.create"))), "s")
	res.add("runstore.artifact_s", sum(durations(byName(spans, "runstore.artifact"))), "s")
	addServerZeros(&res)
	res.add("trace.overhead_frac", 1-traced.ips/base.ips, "ratio")
	if err := o.writeSpans(t0, spans); err != nil {
		return result{}, err
	}
	return res, nil
}

// minPanels is the fewest panels an untraced run times; tracedPanels is
// the fixed panel count of the traced phase.
const (
	minPanels    = 5
	tracedPanels = 4
)
