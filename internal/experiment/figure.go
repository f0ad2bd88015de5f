package experiment

import (
	"fmt"
	"strings"

	"qfarith/internal/compile"
	"qfarith/internal/metrics"
)

// SweepSpec is the hashed identity of a figure sweep: every field that
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
}

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

// PanelJob pairs one panel of a figure sweep with the label that names
// its checkpoint keys and CSV artifact (e.g. "fig3_2q_12").
type PanelJob struct {
	Label  string
	Config PanelConfig
}

// PanelLabel renders the canonical label for a figure panel.
func PanelLabel(command string, axis ErrorAxis, orderX, orderY int) string {
	return fmt.Sprintf("%s_%s_%d%d", command, axis, orderX, orderY)
}

// Panels enumerates the spec's figure panels in the canonical order
// (operand orders outer, error axes inner) plus the full grid's
// checkpoint-key list. This is the single source of truth for how a
// figure sweep decomposes into panels: the CLI's runFigure, merge-runs
// CSV regeneration, and the qfarithd job executor all enumerate through
// it, so a sweep submitted over HTTP at a fixed seed produces the exact
// panel set — and therefore the exact CSV bytes — of the same sweep run
// from the command line.
//
// pipeline is the full compilation config (the spec stores only its
// hash) and workers the scheduling-only instance-parallelism bound;
// callers that never run the panels (CSV regeneration from checkpoints)
// pass the zero values.
func (s SweepSpec) Panels(pipeline compile.Config, workers int) (panels []PanelJob, allKeys []string) {
	for _, orders := range s.Orders {
		for _, axis := range s.Axes {
			rates := s.Rates1Q
			if axis == Axis2Q {
				rates = s.Rates2Q
			}
			pc := PanelConfig{
				Geometry: s.Geometry, Axis: axis,
				OrderX: orders[0], OrderY: orders[1],
				Rates: rates, Depths: s.Depths,
				Budget: Budget{
					Instances:    s.Instances,
					Shots:        s.Shots,
					Trajectories: s.Traj,
					Workers:      workers,
				},
				Seed:     s.Seed,
				Pipeline: pipeline,
				Scorers:  s.Scorers,
			}
			label := PanelLabel(s.Command, axis, orders[0], orders[1])
			panels = append(panels, PanelJob{Label: label, Config: pc})
			allKeys = append(allKeys, pc.Keys(label)...)
		}
	}
	return panels, allKeys
}

// SweepRequest is a sweep as a user asks for it, before validation. The
// qfarith sweep flags and the qfarithd job payload both fill it field
// for field, and Spec is the one place either is checked. Zero values
// take the CLI defaults.
type SweepRequest struct {
	Command string
	// Budget is quick|standard|full ("" = standard); positive
	// Instances, Shots and Trajectories override it field by field.
	Budget                         string
	Instances, Shots, Trajectories int
	// Seed is used as given: the daemon maps its 0 to the CLI default
	// before validation, the CLI keeps an explicit -seed 0.
	Seed uint64
	// Axis is 1q|2q|both ("" = both).
	Axis string
	// Orders is the comma-separated operand-order list ("" =
	// "1:1,1:2,2:2").
	Orders string
	// RatesPct overrides both error-rate grids, in percent; empty keeps
	// the paper grids.
	RatesPct []float64
	// Scorers names success metrics; margin is always on and dropped,
	// duplicates are dropped, order is kept.
	Scorers  []string
	Backend  string
	Pipeline compile.Config
}

// Spec validates the request into the sweep's hashed identity. A
// command FigureSweep knows gets its geometry and depth legend, and its
// operand orders are checked against the operand registers; any other
// command (claim-2q, ablate-addcut) leaves Geometry and Depths to the
// caller.
func (q SweepRequest) Spec() (SweepSpec, error) {
	s := SweepSpec{Command: q.Command, Seed: q.Seed, Backend: q.Backend, Pipeline: q.Pipeline.Hash()}
	geo, depths, figure := FigureSweep(q.Command)
	if figure {
		s.Geometry, s.Depths = geo, depths
	}
	var b Budget
	switch q.Budget {
	case "quick":
		b = Quick
	case "", "standard":
		b = Standard
	case "full":
		b = Full
	default:
		return SweepSpec{}, fmt.Errorf("unknown budget %q (want quick, standard or full)", q.Budget)
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
		if figure && (ox > 1<<uint(geo.XBits) || oy > 1<<uint(geo.YBits)) {
			return SweepSpec{}, fmt.Errorf("orders %d:%d exceed the %d- and %d-bit operand registers", ox, oy, geo.XBits, geo.YBits)
		}
		s.Orders = append(s.Orders, [2]int{ox, oy})
	}

	s.Rates1Q, s.Rates2Q = PaperRates1Q, PaperRates2Q
	if len(q.RatesPct) > 0 {
		grid, err := RateGrid(q.RatesPct)
		if err != nil {
			return SweepSpec{}, err
		}
		s.Rates1Q, s.Rates2Q = grid, grid
	}

	var err error
	if s.Scorers, err = ExtraScorers(q.Scorers); err != nil {
		return SweepSpec{}, err
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
