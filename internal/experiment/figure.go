package experiment

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"qfarith/internal/backend"
	"qfarith/internal/compile"
	"qfarith/internal/metrics"
	"qfarith/internal/noise"
	"qfarith/internal/qft"
	"qfarith/internal/runstore"
)

// SweepSpec is the hashed identity of a sweep: every field that
// determines point results. Scheduling knobs (workers, output paths)
// are deliberately excluded — they cannot change results, so a resumed
// run may vary them freely.
//
// The JSON encoding of this struct is a frozen wire format: runstore
// config hashes are SHA-256 over it, and every run directory ever
// created hashes the exact field names and order below. The CLI and the
// qfarithd job API both build their run manifests from this one struct,
// which is what lets a daemon-created run directory be resumed by the
// CLI (and vice versa) and makes their fixed-seed CSVs byte-identical.
// Do not rename, reorder, or change the type of any field; new fields
// must be tagged omitempty so historical hashes are preserved.
type SweepSpec struct {
	Command   string
	Geometry  Geometry
	Depths    []int
	Axes      []ErrorAxis
	Orders    [][2]int
	Rates1Q   []float64
	Rates2Q   []float64
	Instances int
	Shots     int
	Traj      int
	Seed      uint64
	Backend   string
	// Pipeline is the compile.Config hash: two pass configurations with
	// different compiled output hash differently, so -resume refuses a
	// run whose pass list or coupling changed.
	Pipeline string
	// Scorers lists the additional metrics the sweep evaluates (the
	// -scorers flag, minus the always-on margin). Extra scorers change
	// checkpoint payloads, so they are part of the run's identity;
	// omitempty keeps every pre-existing margin-only hash unchanged.
	Scorers []string `json:",omitempty"`
	// Widths are scaling's sum-register widths n (E10), one panel each.
	Widths []int `json:",omitempty"`
	// AddCuts are ablate-addcut's addition-step rotation cutoffs (E6),
	// one panel each.
	AddCuts []int `json:",omitempty"`
}

// SweepCommands lists every command SweepRequest.Spec accepts.
var SweepCommands = []string{"fig3", "fig4", "fig3-signed", "fig4-signed",
	"claim-2q", "ablate-addcut", "ablate-routing", "scaling"}

// FigureSweep returns the geometry and depth legend of a figure-style
// sweep command ("fig3", "fig4", "fig3-signed", "fig4-signed"). ok is
// false for any other command.
func FigureSweep(command string) (geo Geometry, depths []int, ok bool) {
	switch command {
	case "fig3":
		return PaperAddGeometry(), AddDepths, true
	case "fig4":
		return PaperMulGeometry(), MulDepths, true
	case "fig3-signed":
		return PaperSubGeometry(), AddDepths, true
	case "fig4-signed":
		return PaperSignedMulGeometry(), MulDepths, true
	}
	return Geometry{}, nil, false
}

// PanelJob pairs one panel of a sweep with the label that names
// its checkpoint keys and CSV artifact (e.g. "fig3_2q_12") and the grid
// of points it runs: Grid[i][j] is the point at Config.Rates[i] and
// Config.Depths[j].
type PanelJob struct {
	Label  string
	Config PanelConfig
	Grid   [][]PointConfig
}

// PanelLabel renders the canonical label for a figure panel.
func PanelLabel(command string, axis ErrorAxis, orderX, orderY int) string {
	return fmt.Sprintf("%s_%s_%d%d", command, axis, orderX, orderY)
}

// RoutingTopologies are E7's layouts, one ablate-routing panel each:
// the paper's all-to-all idealization, then the same point routed onto
// each coupling map. Slug names the panel.
var RoutingTopologies = []struct{ Name, Coupling, Slug string }{
	{"all-to-all", "", "all-to-all"},
	{"heavy-hex (Falcon 27)", "heavyhex27", "heavyhex27"},
	{"grid 3x5", "grid:3x5", "grid3x5"},
	{"linear chain", "linear:15", "linear15"},
}

// Panels enumerates the spec's panels in the canonical order plus the
// full grid's checkpoint-key list. It is the one decomposition of a
// sweep into panels and points: RunSweep and merge-runs' CSV
// regeneration both enumerate through it. A figure sweep has one panel
// per operand order and error axis (orders outer), each point built by
// PointAt. scaling has one per width, ablate-routing one per
// RoutingTopologies entry and ablate-addcut one per cutoff, each point
// seeded by its command's own rule.
//
// pipeline is the full compilation config (the spec stores only its
// hash) and workers the scheduling-only instance-parallelism bound;
// callers that never run the panels (CSV regeneration from checkpoints)
// pass the zero values.
func (s SweepSpec) Panels(pipeline compile.Config, workers int) (panels []PanelJob, allKeys []string) {
	// add completes pc from the spec — its axis's rates, the budget,
	// seed and scorers — and appends it as panel label, with point(pc,
	// i, j) building each cell.
	add := func(label string, pc PanelConfig, point func(pc PanelConfig, i, j int) PointConfig) {
		pc.Rates = s.Rates2Q
		if pc.Axis == Axis1Q {
			pc.Rates = s.Rates1Q
		}
		pc.Budget = Budget{Instances: s.Instances, Shots: s.Shots, Trajectories: s.Traj, Workers: workers}
		pc.Seed, pc.Scorers = s.Seed, s.Scorers
		grid := make([][]PointConfig, len(pc.Rates))
		for i := range grid {
			grid[i] = make([]PointConfig, len(pc.Depths))
			for j := range grid[i] {
				grid[i][j] = point(pc, i, j)
			}
		}
		panels = append(panels, PanelJob{Label: label, Config: pc, Grid: grid})
		allKeys = append(allKeys, pc.Keys(label)...)
	}
	pointAt := func(pc PanelConfig, i, j int) PointConfig { return pc.PointAt(pc.Rates[i], pc.Depths[j]) }
	// one is the panel of the commands that sweep one axis and operand
	// order.
	one := func() PanelConfig {
		return PanelConfig{Geometry: s.Geometry, Axis: s.Axes[0], OrderX: s.Orders[0][0], OrderY: s.Orders[0][1],
			Depths: s.Depths, Pipeline: pipeline}
	}
	switch s.Command {
	case "scaling":
		// E10: a (n-1)+n-qubit adder per width, seeded from the width,
		// depth and rate alone.
		for _, n := range s.Widths {
			pc := one()
			pc.Geometry, pc.Depths = AddGeometry(n-1, n), []int{1, 2, 3}
			if n > 4 {
				pc.Depths = append(pc.Depths, 4)
			}
			pc.Depths = append(pc.Depths, qft.Full)
			add(fmt.Sprintf("scaling_n%02d", n), pc, func(pc PanelConfig, i, j int) PointConfig {
				rate, d := pc.Rates[i], pc.Depths[j]
				p := pc.PointAt(rate, d)
				p.Model = noise.PaperModel(0, rate)
				p.RowSeed = SplitSeed(77, uint64(n))
				p.PointSeed = SplitSeed(78, uint64(n)<<16|uint64(d)<<8|uint64(rate*1000))
				return p
			})
		}
	case "ablate-routing":
		// E7: one fixed point at λ1 = Rates1Q[0], compiled through the
		// pipeline, then through a route pass onto each coupling map.
		for _, tp := range RoutingTopologies {
			pc := one()
			if tp.Coupling != "" {
				pc.Pipeline = routedPipeline(pipeline, tp.Coupling)
			}
			add("ablate-routing_"+tp.Slug, pc, func(pc PanelConfig, i, j int) PointConfig {
				p := pointAt(pc, i, j)
				p.Model = noise.PaperModel(s.Rates1Q[0], pc.Rates[i])
				p.RowSeed, p.PointSeed = 1001, 1002
				return p
			})
		}
	case "ablate-addcut":
		// E6: the adder with its addition steps cut.
		for _, cut := range s.AddCuts {
			add(fmt.Sprintf("ablate-addcut_cut%d", cut), one(), func(pc PanelConfig, i, j int) PointConfig {
				p := pointAt(pc, i, j)
				p.AddCut = cut
				p.RowSeed = SplitSeed(s.Seed, 0x22)
				p.PointSeed = SplitSeed(s.Seed, uint64(cut)<<8|uint64(i))
				return p
			})
		}
	default:
		for _, orders := range s.Orders {
			for _, axis := range s.Axes {
				add(PanelLabel(s.Command, axis, orders[0], orders[1]), PanelConfig{
					Geometry: s.Geometry, Axis: axis, OrderX: orders[0], OrderY: orders[1],
					Depths: s.Depths, Pipeline: pipeline,
				}, pointAt)
			}
		}
	}
	return panels, allKeys
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

// ErrArtifact marks a RunSweep error raised while writing a panel CSV,
// after every point of that panel was computed and checkpointed.
var ErrArtifact = errors.New("write CSV")

// SweepOptions selects how RunSweep runs a sweep beyond its spec. None
// of them changes a point's result.
type SweepOptions struct {
	// Pipeline is the full compilation config whose hash the spec
	// records; Workers bounds each point's instance parallelism
	// (0 = GOMAXPROCS).
	Pipeline compile.Config
	Workers  int
	// Run is the sweep's open run directory (runstore.Open), or nil for
	// a sweep that is not durable. Its checkpoints are restored and
	// extended, and the panel CSVs are written into it. A run whose
	// manifest names a shard runs only the cells that shard owns and
	// writes no CSV: its panels stay partial until merge-runs unions the
	// shards' run directories.
	Run *runstore.Run
	// OutDir receives the panel CSVs when Run is nil; "" writes none.
	OutDir string
	// Progress, when non-nil, observes every completed cell.
	Progress func(SweepProgress)
}

// SweepProgress is one completed cell of a sweep. Done, Fresh, Restored
// and Total count the cells the sweep owns across all its panels, as
// Progress counts them for one panel; Cell is the panel-level report.
type SweepProgress struct {
	Panel                        string
	Done, Fresh, Restored, Total int
	Cell                         Progress
}

// RunSweep runs every panel of spec, in Panels order, over its Grid
// the way RunPanel runs a panel, and writes each finished panel's CSV to <label>.csv with
// runstore.WriteArtifact (none when sharded). It is the one sweep path
// of the qfarith CLI and the qfarithd executor, which is why a job and
// a CLI run of the same spec write the same bytes. Results come back
// in Panels order.
func RunSweep(ctx context.Context, r *backend.Runner, spec SweepSpec, opts SweepOptions) ([]PanelResult, error) {
	panels, keys := spec.Panels(opts.Pipeline, opts.Workers)
	var (
		ck    CheckpointStore
		shard Shard
	)
	outDir := opts.OutDir
	if run := opts.Run; run != nil {
		var err error
		if shard, err = ParseShard(run.Manifest().Shard); err != nil {
			return nil, err
		}
		ck, outDir = run, run.Dir()
		if shard.Enabled() {
			outDir = ""
		}
	} else if outDir != "" {
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return nil, err
		}
	}
	// Panels run one after another, so the sweep counts are the
	// finished panels' counts plus the running panel's.
	sum := SweepProgress{Total: len(shard.OwnedKeys(keys))}
	results := make([]PanelResult, 0, len(panels))
	for _, pj := range panels {
		var last Progress
		popts := PanelOptions{Label: pj.Label, Shard: shard, Checkpoint: ck}
		if opts.Progress != nil {
			popts.Progress = func(p Progress) {
				last = p
				opts.Progress(SweepProgress{Panel: pj.Label,
					Done: sum.Done + p.Done, Fresh: sum.Fresh + p.Fresh,
					Restored: sum.Restored + p.Restored, Total: sum.Total, Cell: p})
			}
		}
		res, err := runGrid(ctx, r, pj.Config, func(i, j int) PointConfig { return pj.Grid[i][j] }, popts)
		if err != nil {
			return nil, fmt.Errorf("panel %s: %w", pj.Label, err)
		}
		sum.Done, sum.Fresh, sum.Restored = sum.Done+last.Done, sum.Fresh+last.Fresh, sum.Restored+last.Restored
		if outDir != "" {
			if err := runstore.WriteArtifact(filepath.Join(outDir, pj.Label+".csv"), []byte(res.CSV())); err != nil {
				return nil, fmt.Errorf("panel %s: %w: %w", pj.Label, ErrArtifact, err)
			}
		}
		results = append(results, res)
	}
	return results, nil
}

// SweepRequest is a sweep as a user asks for it, before validation. The
// qfarith sweep flags and the qfarithd job payload both fill it field
// for field, and Spec is the one place either is checked. Zero values
// take the CLI defaults.
type SweepRequest struct {
	Command string
	// Budget is quick|standard|full ("" = standard); positive
	// Instances, Shots and Trajectories override it field by field.
	// scaling and ablate-routing take no named budget: their defaults
	// are their own (fixedBudgets).
	Budget                         string
	Instances, Shots, Trajectories int
	// Seed is used as given: the daemon maps its 0 to the CLI default
	// before validation, the CLI keeps an explicit -seed 0. scaling and
	// ablate-routing seed their points with fixed constants, so their
	// specs record seed 0 whatever is asked.
	Seed uint64
	// Axis is 1q|2q|both ("" = both).
	Axis string
	// Orders is the comma-separated operand-order list ("" =
	// "1:1,1:2,2:2").
	Orders string
	// RatesPct overrides both error-rate grids, in percent; empty keeps
	// the paper grids (scaling: 1,2,3).
	RatesPct []float64
	// Widths are scaling's sum-register widths (-n); empty keeps
	// 4,6,8,10. Other commands ignore them.
	Widths []int
	// P2 is ablate-routing's 2q error rate as a fraction (-p2); nil
	// keeps 0.005. Other commands ignore it.
	P2 *float64
	// Scorers names success metrics; margin is always on and dropped,
	// duplicates are dropped, order is kept.
	Scorers  []string
	Backend  string
	Pipeline compile.Config
}

// claim2QRates are the conclusions' improved (0.7%) and current (1.0%)
// 2q error rates. They are literals, not RateGrid's 0.7/100, which is
// 0.006999999999999999: the rate's bits feed every point seed.
var claim2QRates = []float64{0.007, 0.010}

// fixedBudgets are the default budgets of the commands that take
// instance counts but no named budget and seed their points with fixed
// constants.
var fixedBudgets = map[string]Budget{
	"scaling":        {Instances: 12, Shots: 2048, Trajectories: 16},
	"ablate-routing": {Instances: 30, Shots: 2048, Trajectories: 24},
}

// Spec validates the request into the sweep's hashed identity and
// refuses a command not in SweepCommands. A figure command gets its
// geometry and depth legend (FigureSweep), and its operand orders are
// checked against the operand registers. The others fix their grid:
//   - claim-2q: 1:2 and 2:2 Fig. 3 addition on the 2q axis at
//     claim2QRates;
//   - scaling (E10): 1:2 addition on (n-1)+n qubits for each width n,
//     2q rates from RatesPct (default 1,2,3 %);
//   - ablate-routing (E7): the d=3 1:2 Fig. 3 adder at λ1 = 0.2 % and
//     λ2 = P2, on a pipeline without a route pass of its own;
//   - ablate-addcut (E6): the full-AQFT 2:2 Fig. 3 adder at 0 and 1 %
//     2q error with addition-step cutoffs 1, 2, 3, 4, 6 and 8 (= full).
func (q SweepRequest) Spec() (SweepSpec, error) {
	s := SweepSpec{Command: q.Command, Seed: q.Seed, Backend: q.Backend, Pipeline: q.Pipeline.Hash()}
	geo, depths, figure := FigureSweep(q.Command)
	if !slices.Contains(SweepCommands, q.Command) {
		return SweepSpec{}, fmt.Errorf("unknown command %q (want %s)", q.Command, strings.Join(SweepCommands, ", "))
	}
	b := Standard
	switch q.Budget {
	case "quick":
		b = Quick
	case "", "standard":
	case "full":
		b = Full
	default:
		return SweepSpec{}, fmt.Errorf("unknown budget %q (want quick, standard or full)", q.Budget)
	}
	if fixed, ok := fixedBudgets[q.Command]; ok {
		if q.Budget != "" {
			return SweepSpec{}, fmt.Errorf("%s takes instances, shots and trajectories, not a budget", q.Command)
		}
		b, s.Seed = fixed, 0
	}
	if q.Instances < 0 || q.Shots < 0 || q.Trajectories < 0 {
		return SweepSpec{}, fmt.Errorf("instances/shots/trajectories must be positive")
	}
	s.Instances, s.Shots, s.Traj = b.Instances, b.Shots, b.Trajectories
	if q.Instances > 0 {
		s.Instances = q.Instances
	}
	if q.Shots > 0 {
		s.Shots = q.Shots
	}
	if q.Trajectories > 0 {
		s.Traj = q.Trajectories
	}
	var err error
	if s.Scorers, err = ExtraScorers(q.Scorers); err != nil {
		return SweepSpec{}, err
	}
	if !figure {
		if q.Axis != "" || q.Orders != "" {
			return SweepSpec{}, fmt.Errorf("%s fixes its axis and operand orders", q.Command)
		}
		if len(q.RatesPct) > 0 && q.Command != "scaling" {
			return SweepSpec{}, fmt.Errorf("%s fixes its rates", q.Command)
		}
		s.Axes, s.Orders = []ErrorAxis{Axis2Q}, [][2]int{{1, 2}}
		if q.Command != "scaling" {
			s.Geometry = PaperAddGeometry()
		}
	}
	switch q.Command {
	case "claim-2q":
		s.Depths, s.Orders = AddDepths, [][2]int{{1, 2}, {2, 2}}
		s.Rates1Q, s.Rates2Q = claim2QRates, claim2QRates
		return s, nil
	case "scaling":
		s.Widths = q.Widths
		if len(s.Widths) == 0 {
			s.Widths = []int{4, 6, 8, 10}
		}
		for _, n := range s.Widths {
			if n < 2 {
				return SweepSpec{}, fmt.Errorf("register width %d < 2", n)
			}
		}
		pcts := q.RatesPct
		if len(pcts) == 0 {
			pcts = []float64{1, 2, 3}
		}
		if s.Rates2Q, err = RateGrid(pcts); err != nil {
			return SweepSpec{}, err
		}
		return s, nil
	case "ablate-routing":
		if slices.Contains(q.Pipeline.PassList(), compile.PassRoute) {
			return SweepSpec{}, fmt.Errorf("ablate-routing routes each topology itself; drop %q from the passes", compile.PassRoute)
		}
		p2 := 0.005
		if q.P2 != nil {
			p2 = *q.P2
		}
		if !(p2 >= 0 && p2 < 1) {
			return SweepSpec{}, fmt.Errorf("p2 %g out of range [0, 1)", p2)
		}
		s.Depths, s.Rates1Q, s.Rates2Q = []int{3}, []float64{0.002}, []float64{p2}
		return s, nil
	case "ablate-addcut":
		s.Depths, s.Orders = []int{qft.Full}, [][2]int{{2, 2}}
		s.Rates2Q, s.AddCuts = []float64{0, 0.01}, []int{1, 2, 3, 4, 6, 8}
		return s, nil
	}

	s.Geometry, s.Depths = geo, depths
	switch q.Axis {
	case "1q":
		s.Axes = []ErrorAxis{Axis1Q}
	case "2q":
		s.Axes = []ErrorAxis{Axis2Q}
	case "", "both":
		s.Axes = []ErrorAxis{Axis1Q, Axis2Q}
	default:
		return SweepSpec{}, fmt.Errorf("unknown axis %q (want 1q, 2q or both)", q.Axis)
	}
	orders := q.Orders
	if orders == "" {
		orders = "1:1,1:2,2:2"
	}
	for _, tok := range strings.Split(orders, ",") {
		var ox, oy int
		if _, err := fmt.Sscanf(strings.TrimSpace(tok), "%d:%d", &ox, &oy); err != nil {
			return SweepSpec{}, fmt.Errorf("bad orders token %q (want e.g. 1:2)", tok)
		}
		if ox < 1 || oy < 1 {
			return SweepSpec{}, fmt.Errorf("orders must be >= 1, got %d:%d", ox, oy)
		}
		if ox > 1<<uint(geo.XBits) || oy > 1<<uint(geo.YBits) {
			return SweepSpec{}, fmt.Errorf("orders %d:%d exceed the %d- and %d-bit operand registers", ox, oy, geo.XBits, geo.YBits)
		}
		s.Orders = append(s.Orders, [2]int{ox, oy})
	}
	s.Rates1Q, s.Rates2Q = PaperRates1Q, PaperRates2Q
	if len(q.RatesPct) > 0 {
		if s.Rates1Q, err = RateGrid(q.RatesPct); err != nil {
			return SweepSpec{}, err
		}
		s.Rates2Q = s.Rates1Q
	}
	return s, nil
}

// ExtraScorers validates requested scorer names into the extra-scorer
// list a PointConfig carries. The paper's margin scoring is always on
// (its columns are the frozen CSV schema), so "margin" and blanks are
// dropped, as are duplicates; order is kept. An empty result keeps a
// sweep on the historical margin-only output, byte for byte.
func ExtraScorers(names []string) ([]string, error) {
	var extras []string
	seen := map[string]bool{}
	for _, name := range names {
		name = strings.TrimSpace(name)
		if name == "" || name == "margin" || seen[name] {
			continue
		}
		if _, ok := metrics.LookupScorer(name); !ok {
			return nil, fmt.Errorf("unknown scorer %q (registered: %s)",
				name, strings.Join(metrics.ScorerNames(), ","))
		}
		seen[name] = true
		extras = append(extras, name)
	}
	return extras, nil
}

// RateGrid converts error rates in percent to the fractions a sweep
// runs, refusing any rate outside [0, 100).
func RateGrid(pcts []float64) ([]float64, error) {
	grid := make([]float64, len(pcts))
	for i, pct := range pcts {
		if !(pct >= 0 && pct < 100) {
			return nil, fmt.Errorf("rate %g%% out of range [0, 100)", pct)
		}
		grid[i] = pct / 100
	}
	return grid, nil
}
