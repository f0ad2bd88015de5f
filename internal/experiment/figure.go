package experiment

import (
	"fmt"

	"qfarith/internal/compile"
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
