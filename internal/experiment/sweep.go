package experiment

import (
	"context"
	"fmt"
	"math"
	"strings"
	"sync"

	"qfarith/internal/backend"
	"qfarith/internal/circuit"
	"qfarith/internal/compile"
	"qfarith/internal/metrics"
	"qfarith/internal/noise"
	"qfarith/internal/plot"
	"qfarith/internal/qft"
	"qfarith/internal/transpile"
)

func newCircuit(n int) *circuit.Circuit { return circuit.New(n) }

func srcCircuit(res *transpile.Result) *circuit.Circuit {
	c := circuit.New(res.NumQubits)
	c.Ops = append(c.Ops, res.Source...)
	return c
}

// ErrorAxis selects which gate class's error rate a sweep varies.
type ErrorAxis int

const (
	// Axis1Q varies the 1q-gate depolarizing rate (left columns of the
	// paper's figures).
	Axis1Q ErrorAxis = iota
	// Axis2Q varies the 2q-gate depolarizing rate (right columns).
	Axis2Q
)

func (a ErrorAxis) String() string {
	if a == Axis1Q {
		return "1q"
	}
	return "2q"
}

// Budget fixes the statistical effort of a sweep.
type Budget struct {
	Instances    int
	Shots        int
	Trajectories int
	Workers      int
}

// Presets, ordered by cost. Paper reproduces the publication's 200+
// instances and 2048 shots with trajectory count equal to shots (exact
// per-shot noise semantics). Quick is sized for CI smoke runs.
var (
	Quick    = Budget{Instances: 8, Shots: 512, Trajectories: 8}
	Standard = Budget{Instances: 40, Shots: 2048, Trajectories: 24}
	Full     = Budget{Instances: 200, Shots: 2048, Trajectories: 2048}
)

// PaperRates1Q is the 1q-gate error-rate grid (fractions): the paper
// clusters start at 0.2% and step by 0.1%, with the dashed reference
// line at 0.2% marking current IBM hardware.
var PaperRates1Q = []float64{0, 0.002, 0.003, 0.004, 0.005, 0.006, 0.008}

// PaperRates2Q is the 2q-gate error-rate grid (fractions): anchored on
// the 1.0% dashed line (current hardware) and the 0.7% improved rate the
// conclusions discuss.
var PaperRates2Q = []float64{0, 0.003, 0.005, 0.007, 0.010, 0.015, 0.020}

// AddDepths are the Fig. 3 legend depths; 7 is the full QFT for the
// 8-qubit register.
var AddDepths = []int{1, 2, 3, 4, qft.Full}

// MulDepths are the Fig. 4 legend depths; full is d >= 4 on the 5-qubit
// cQFA windows.
var MulDepths = []int{1, 2, qft.Full}

// Orders are the figure rows: 1:1, 1:2, 2:2.
var Orders = [][2]int{{1, 1}, {1, 2}, {2, 2}}

// PanelConfig describes one figure panel: an operation/orders row and an
// error-rate column.
type PanelConfig struct {
	Geometry Geometry
	Axis     ErrorAxis
	OrderX   int
	OrderY   int
	Rates    []float64
	Depths   []int
	Budget   Budget
	Seed     uint64
	// Pipeline selects the compilation pass pipeline for every point of
	// the panel; the zero value is the default pipeline.
	Pipeline compile.Config
	// Scorers names additional success metrics evaluated beside the
	// always-on margin scoring; their aggregated columns are appended to
	// the panel CSV in this order. Empty reproduces the historical
	// margin-only output byte for byte.
	Scorers []string `json:",omitempty"`
}

// PanelResult holds a panel's sweep grid: Points[rateIdx][depthIdx].
type PanelResult struct {
	Config PanelConfig
	Points [][]PointResult
}

// PointAt builds the PointConfig for the grid cell at (rate, depth) —
// the seed rule of every figure panel (SweepSpec.Panels starts the
// other commands' points from it too).
func (cfg PanelConfig) PointAt(rate float64, depth int) PointConfig {
	model := noise.Noiseless
	if rate > 0 {
		if cfg.Axis == Axis1Q {
			model = noise.PaperModel(rate, 0)
		} else {
			model = noise.PaperModel(0, rate)
		}
	}
	return PointConfig{
		Geometry:     cfg.Geometry,
		Depth:        depth,
		Model:        model,
		OrderX:       cfg.OrderX,
		OrderY:       cfg.OrderY,
		Instances:    cfg.Budget.Instances,
		Shots:        cfg.Budget.Shots,
		Trajectories: cfg.Budget.Trajectories,
		RowSeed:      SplitSeed(cfg.Seed, uint64(cfg.OrderX)<<8|uint64(cfg.OrderY)),
		PointSeed:    SplitSeed(cfg.Seed, hashPoint(cfg.Axis, rate, depth, cfg.OrderX, cfg.OrderY)),
		Workers:      cfg.Budget.Workers,
		Pipeline:     cfg.Pipeline,
		Scorers:      cfg.Scorers,
	}
}

// Progress describes one completed grid cell of a panel sweep. Done is
// always Fresh + Restored; trackers that estimate throughput or ETA
// should rate only the fresh count — restored cells complete in
// microseconds and would otherwise inflate both (the classic
// post-resume "finishing in 30 seconds" lie).
type Progress struct {
	// Done counts all completed cells so far, in completion order.
	Done int
	// Fresh counts cells computed in this process.
	Fresh int
	// Restored counts cells restored from a checkpoint log.
	Restored int
	// Total is the number of cells in the grid.
	Total int
	// Point is the cell that just completed.
	Point PointResult
	// FromCheckpoint is true when Point was restored, not computed.
	FromCheckpoint bool
}

// ProgressFunc observes panel sweep progress. Callbacks are serialized
// under the panel's bookkeeping lock, so implementations may update
// shared state without further synchronization — but must not block.
type ProgressFunc func(Progress)

// PanelOptions selects how RunPanel runs a panel beyond its config.
type PanelOptions struct {
	// Label names the panel's cells inside Checkpoint and for Shard
	// ownership: cell (i, j) is PointKey(Label, i, j).
	Label string
	// Shard restricts the sweep to the cells it owns; unowned cells are
	// neither run nor restored, stay zero in the result, and are
	// excluded from Progress.Total. Merge the shards' run directories
	// (runstore.MergeRuns) and rebuild with PanelFromCheckpoints to
	// recover the full panel. The zero value owns every cell.
	Shard Shard
	// Checkpoint, when non-nil, makes the panel durable: cells already
	// stored are restored instead of re-run, and every fresh cell is
	// recorded before it counts as done, so an interrupt between
	// progress callbacks loses nothing.
	Checkpoint CheckpointStore
	// Progress, when non-nil, observes every completed cell.
	Progress ProgressFunc
}

// RunPanelCtx is RunPanel without checkpoint or shard. It remains only
// for the perfbench module, which pins it; it goes when perfbench next
// changes.
func RunPanelCtx(ctx context.Context, r *backend.Runner, cfg PanelConfig, progress ProgressFunc) (PanelResult, error) {
	return RunPanel(ctx, r, cfg, PanelOptions{Progress: progress})
}

// RunPanelCheckpointCtx is RunPanel with a checkpoint. It remains only
// for the perfbench module, which pins it; it goes when perfbench next
// changes.
func RunPanelCheckpointCtx(ctx context.Context, r *backend.Runner, cfg PanelConfig, panel string, ck CheckpointStore, progress ProgressFunc) (PanelResult, error) {
	return RunPanel(ctx, r, cfg, PanelOptions{Label: panel, Checkpoint: ck, Progress: progress})
}

// RunPanel sweeps all (rate, depth) combinations of a panel on the
// given runner, cell (rate, depth) being cfg.PointAt(rate, depth).
// Each admitted grid point runs as a coordinator
// goroutine whose operand instances draw from the runner's single
// bounded worker pool, so panel-level and instance-level parallelism
// share one slot budget. Results land at their (rate, depth) grid
// index, so output ordering — and therefore CSV bytes — is independent
// of scheduling.
//
// Resume invariant: because every cell's RNG streams derive only from
// (PanelConfig.Seed, grid coordinates) — never from scheduling order —
// a resumed panel's result is identical to an uninterrupted run's.
// Restored cells fire progress callbacks with FromCheckpoint set and
// count toward Progress.Restored (never Fresh), so trackers can report
// them without folding their near-zero latency into rate estimates.
//
// Fresh cells are admitted in grid order through a window of
// W = r.Workers()+1 points. Starting every cell at once would queue all
// their instances FIFO on the pool's semaphore and interleave them, so
// no cell would finish (or checkpoint) until the panel nearly ends.
// With the window, at most W cells have instances in flight; the extra
// one beyond the pool width keeps the pool fed while a finished cell's
// last instances drain. A cell leaves the window when its instances are
// done, before its checkpoint append, so the next cell's instances
// queue while the append's fsync runs.
//
// Cancelling ctx stops the sweep mid-grid: no new points are admitted,
// no new instances are scheduled, in-flight instances drain, and
// ctx.Err() is returned.
func RunPanel(ctx context.Context, r *backend.Runner, cfg PanelConfig, opts PanelOptions) (PanelResult, error) {
	return runGrid(ctx, r, cfg, func(i, j int) PointConfig { return cfg.PointAt(cfg.Rates[i], cfg.Depths[j]) }, opts)
}

// runGrid is RunPanel over the grid point(i, j) builds for each cell
// (rate i, depth j): PointAt for a figure panel, a PanelJob's Grid in
// RunSweep.
func runGrid(ctx context.Context, r *backend.Runner, cfg PanelConfig, point func(i, j int) PointConfig, opts PanelOptions) (PanelResult, error) {
	panel, shard, ck, progress := opts.Label, opts.Shard, opts.Checkpoint, opts.Progress
	out := PanelResult{Config: cfg, Points: make([][]PointResult, len(cfg.Rates))}
	for i := range out.Points {
		out.Points[i] = make([]PointResult, len(cfg.Depths))
	}
	total := len(cfg.Rates) * len(cfg.Depths)
	if shard.Enabled() {
		total = len(shard.OwnedKeys(cfg.Keys(panel)))
	}
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		done     int
		fresh    int
		restored int
		firstErr error
	)
	// fail records err as the sweep's error unless one is already
	// recorded; callers hold mu.
	fail := func(err error) {
		if firstErr == nil {
			firstErr = err
		}
	}
	window := make(chan struct{}, r.Workers()+1)
	// admit takes a window slot for the next fresh cell. It reports
	// false once the sweep must stop admitting: on cancellation, which
	// it records as the first error, or after any cell has failed. A
	// slot taken just before stopping stays unused; nothing else waits
	// on the window then.
	admit := func() bool {
		select {
		case <-ctx.Done():
		case window <- struct{}{}:
		}
		mu.Lock()
		defer mu.Unlock()
		fail(ctx.Err())
		return firstErr == nil
	}
grid:
	for i := range cfg.Rates {
		for j := range cfg.Depths {
			key := ""
			if ck != nil || shard.Enabled() {
				key = PointKey(panel, i, j)
			}
			if shard.Enabled() && !shard.Owns(key) {
				continue
			}
			if ck != nil {
				pr, ok, err := lookupPoint(ck, key)
				if err != nil {
					mu.Lock()
					fail(err)
					mu.Unlock()
					break grid
				}
				if ok {
					mu.Lock()
					out.Points[i][j] = pr
					done++
					restored++
					if progress != nil {
						progress(Progress{Done: done, Fresh: fresh, Restored: restored, Total: total, Point: pr, FromCheckpoint: true})
					}
					mu.Unlock()
					continue
				}
			}
			if !admit() {
				break grid
			}
			wg.Add(1)
			go func(i, j int, key string, pc PointConfig) {
				defer wg.Done()
				pr, err := RunPoint(ctx, r, pc)
				<-window
				if err == nil && ck != nil {
					// Record before acknowledging: a crash after the
					// progress callback must never lose the point.
					err = ck.AppendPoint(key, pr)
				}
				mu.Lock()
				defer mu.Unlock()
				if err != nil {
					fail(err)
					return
				}
				out.Points[i][j] = pr
				done++
				fresh++
				if progress != nil {
					progress(Progress{Done: done, Fresh: fresh, Restored: restored, Total: total, Point: pr})
				}
			}(i, j, key, point(i, j))
		}
	}
	wg.Wait()
	if firstErr != nil {
		return PanelResult{}, firstErr
	}
	return out, nil
}

// hashPoint derives a point-seed discriminator from the sweep
// coordinates by chaining SplitSeed over each field. The previous
// shift-packed XOR (uint64(rate*1e7) folded into depth/order bits) could
// collide for nearby grid points; chaining a SplitMix64 round per field
// decorrelates every coordinate.
func hashPoint(axis ErrorAxis, rate float64, depth, ox, oy int) uint64 {
	h := SplitSeed(uint64(axis), math.Float64bits(rate))
	h = SplitSeed(h, uint64(depth))
	h = SplitSeed(h, uint64(ox))
	return SplitSeed(h, uint64(oy))
}

// DepthLabel renders a depth for tables/legends ("full" for qft.Full).
func DepthLabel(d int, registerWidth int) string {
	if qft.IsFull(d, registerWidth) {
		return "full"
	}
	return fmt.Sprintf("%d", d)
}

// CSV renders a panel as comma-separated rows:
// axis,rate,depth,orders,success,lower,upper,sigma,instances. When the
// panel requested additional scorers their aggregated columns follow
// the frozen seventeen, one per scorer column, in request order —
// margin-only panels emit the historical byte-identical layout.
func (p PanelResult) CSV() string {
	extraCols := ScorerColumns(p.Config.Scorers)
	var sb strings.Builder
	sb.WriteString("op,axis,rate_pct,depth,order_x,order_y,success_pct,lower_bar_pct,upper_bar_pct,margin_mean,margin_sigma,mean_fidelity,instances,shots,trajectories,w0,expected_errors")
	for _, c := range extraCols {
		sb.WriteByte(',')
		sb.WriteString(c)
	}
	sb.WriteByte('\n')
	for i, rate := range p.Config.Rates {
		for j, d := range p.Config.Depths {
			r := p.Points[i][j]
			fmt.Fprintf(&sb, "%s,%s,%.3f,%s,%d,%d,%.2f,%.2f,%.2f,%.2f,%.2f,%.4f,%d,%d,%d,%.5f,%.3f",
				p.Config.Geometry.Op, p.Config.Axis, rate*100,
				DepthLabel(d, depthRegWidth(p.Config.Geometry)),
				p.Config.OrderX, p.Config.OrderY,
				r.Stats.SuccessRate, r.Stats.LowerBar, r.Stats.UpperBar,
				r.Stats.MarginMean, r.Stats.MarginSigma, r.Stats.MeanFidelity,
				r.Config.Instances, r.Config.Shots, r.Config.Trajectories,
				r.NoErrorProb, r.ExpectedErrors)
			for _, c := range extraCols {
				fmt.Fprintf(&sb, ",%.6f", extraValue(r.Stats, c))
			}
			sb.WriteByte('\n')
		}
	}
	return sb.String()
}

// ScorerColumns flattens the CSV columns the named scorers contribute,
// in request order. Panics on an unknown name: panel configurations are
// validated at the CLI boundary, so reaching here with a bad name is a
// programming error, not user input.
func ScorerColumns(names []string) []string {
	ss, err := metrics.ResolveScorers(names)
	if err != nil {
		panic("experiment: " + err.Error())
	}
	var cols []string
	for _, s := range ss {
		cols = append(cols, s.Columns()...)
	}
	return cols
}

// extraValue looks an aggregated scorer column up by name. Restored
// checkpoints wrote Extra in scorer-request order, but name lookup
// keeps the CSV correct even if a future payload reorders it. A point
// that never ran the scorer (zero value) reports 0.
func extraValue(st metrics.PointStats, name string) float64 {
	for _, mv := range st.Extra {
		if mv.Name == name {
			return mv.Value
		}
	}
	return 0
}

// depthRegWidth returns the register width that determines when a depth
// is "full": the QFT register for addition/subtraction, the cQFA window
// for (signed or unsigned) multiplication.
func depthRegWidth(g Geometry) int {
	switch g.Op {
	case OpAdd, OpSub:
		return g.YBits
	default:
		return g.YBits + 1
	}
}

// Plot renders a panel as an ASCII chart: success rate vs. error rate,
// one series per depth — the terminal rendition of a figure panel.
func (p PanelResult) Plot() string {
	lo, hi := 0.0, 100.0
	ch := plot.Chart{
		Title: fmt.Sprintf("%s %s sweep %d:%d — success%% vs rate%%",
			strings.ToUpper(p.Config.Geometry.Op.String()), p.Config.Axis,
			p.Config.OrderX, p.Config.OrderY),
		XLabel: "gate error rate (%)",
		YLabel: "success rate (%)",
		YMin:   &lo, YMax: &hi,
	}
	for j, d := range p.Config.Depths {
		s := plot.Series{Label: "d=" + DepthLabel(d, depthRegWidth(p.Config.Geometry))}
		for i, rate := range p.Config.Rates {
			s.X = append(s.X, rate*100)
			s.Y = append(s.Y, p.Points[i][j].Stats.SuccessRate)
		}
		ch.Add(s)
	}
	return ch.Render()
}

// Table renders a panel as a fixed-width ASCII table with one row per
// error rate and one column per depth, mirroring the figure clusters.
func (p PanelResult) Table() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s %s-gate error sweep, %d:%d superposition\n",
		strings.ToUpper(p.Config.Geometry.Op.String()), p.Config.Axis,
		p.Config.OrderX, p.Config.OrderY)
	fmt.Fprintf(&sb, "%-10s", "rate%")
	for _, d := range p.Config.Depths {
		fmt.Fprintf(&sb, "%12s", "d="+DepthLabel(d, depthRegWidth(p.Config.Geometry)))
	}
	sb.WriteByte('\n')
	for i, rate := range p.Config.Rates {
		fmt.Fprintf(&sb, "%-10.2f", rate*100)
		for j := range p.Config.Depths {
			r := p.Points[i][j]
			fmt.Fprintf(&sb, "%11.1f%%", r.Stats.SuccessRate)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}
