package server

import (
	"reflect"
	"testing"

	"qfarith/internal/compile"
	"qfarith/internal/experiment"
)

// TestJobRequestDefaults: an unadorned job is the daemon rendition of
// an unadorned CLI sweep — the daemon maps seed 0 to the CLI's default
// seed and fills its backend, and everything else comes from the
// shared validator's defaults.
func TestJobRequestDefaults(t *testing.T) {
	got, err := JobRequest{Command: "fig3"}.Spec("trajectory")
	if err != nil {
		t.Fatal(err)
	}
	want := experiment.SweepSpec{
		Command: "fig3", Geometry: experiment.PaperAddGeometry(), Depths: experiment.AddDepths,
		Axes:    []experiment.ErrorAxis{experiment.Axis1Q, experiment.Axis2Q},
		Orders:  [][2]int{{1, 1}, {1, 2}, {2, 2}},
		Rates1Q: experiment.PaperRates1Q, Rates2Q: experiment.PaperRates2Q,
		Instances: experiment.Standard.Instances, Shots: experiment.Standard.Shots,
		Traj: experiment.Standard.Trajectories,
		Seed: defaultSeed, Backend: "trajectory",
		Pipeline: compile.Config{}.Hash(),
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("default job spec:\n got %+v\nwant %+v", got, want)
	}
	cli, err := experiment.SweepRequest{Command: "fig3", Seed: defaultSeed, Backend: "trajectory"}.Spec()
	if err != nil || !reflect.DeepEqual(cli, got) {
		t.Errorf("CLI default spec %+v (%v) differs from the daemon's", cli, err)
	}
	if _, err := (JobRequest{Command: "fig9"}).Spec("trajectory"); err == nil {
		t.Error("daemon accepted an unknown command")
	}
	// Every sweep command is admitted with the CLI defaults.
	for _, cmd := range experiment.SweepCommands {
		if _, err := (JobRequest{Command: cmd}).Spec("trajectory"); err != nil {
			t.Errorf("daemon refused %s: %v", cmd, err)
		}
	}
}
