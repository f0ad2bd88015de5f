package experiment_test

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"qfarith/internal/backend"
	"qfarith/internal/compile"
	"qfarith/internal/experiment"
	"qfarith/internal/runstore"
)

// tinySweep is a two-panel fig3 sweep small enough for every test run:
// one 2q rate, orders 1:1 and 1:2, one instance per point.
func tinySweep(t *testing.T) experiment.SweepSpec {
	t.Helper()
	spec, err := experiment.SweepRequest{
		Command: "fig3", Budget: "quick", Instances: 1, Shots: 32, Trajectories: 1,
		Seed: 777, Axis: "2q", Orders: "1:1,1:2", RatesPct: []float64{0.5},
		Backend: backend.DefaultName,
	}.Spec()
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// openSweep opens dir for spec through runstore.Open, as the CLI and
// the daemon do.
func openSweep(t *testing.T, dir string, spec experiment.SweepSpec, shard experiment.Shard, resume bool) *runstore.Run {
	t.Helper()
	_, keys := spec.Panels(compile.Config{}, 0)
	run, err := runstore.Open(dir, runstore.Manifest{Command: spec.Command, Seed: spec.Seed, Shard: shard.String()}, spec, keys, resume)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { run.Close() })
	return run
}

// resumeRestoresEverything resumes a finished run directory through
// RunSweep and checks that every cell comes back from the checkpoint
// log, no backend instance runs, and each panel CSV is rewritten byte
// for byte as want holds it.
func resumeRestoresEverything(t *testing.T, dir string, spec experiment.SweepSpec, want map[string][]byte) {
	t.Helper()
	run := openSweep(t, dir, spec, experiment.Shard{}, true)
	cb := &countingBackend{Backend: backend.NewTrajectoryBackend()}
	var last experiment.SweepProgress
	_, err := experiment.RunSweep(context.Background(), backend.NewRunner(cb, 2), spec, experiment.SweepOptions{
		Run: run, Progress: func(sp experiment.SweepProgress) {
			if !sp.Cell.FromCheckpoint {
				t.Errorf("resumed cell %s %d/%d was computed, not restored", sp.Panel, sp.Cell.Done, sp.Cell.Total)
			}
			last = sp
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := cb.calls.Load(); n != 0 {
		t.Errorf("resuming a finished run simulated %d instances, want 0", n)
	}
	if last.Done != last.Total || last.Restored != last.Total || last.Fresh != 0 {
		t.Errorf("final sweep progress %+v, want every cell restored", last)
	}
	for name, data := range want {
		got, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(data) {
			t.Errorf("resumed %s differs:\n got %s\nwant %s", name, got, data)
		}
	}
}

// TestRunSweepWritesAndResumes: a fresh sweep writes one CSV per panel
// into its run directory with counts summed across panels, and
// resuming the finished run restores every cell and rewrites the same
// bytes.
func TestRunSweepWritesAndResumes(t *testing.T) {
	spec := tinySweep(t)
	dir := filepath.Join(t.TempDir(), "run")
	run := openSweep(t, dir, spec, experiment.Shard{}, false)
	var last experiment.SweepProgress
	results, err := experiment.RunSweep(context.Background(), newTrajRunner(2), spec, experiment.SweepOptions{
		Run: run, Progress: func(sp experiment.SweepProgress) { last = sp },
	})
	if err != nil {
		t.Fatal(err)
	}
	run.Close()
	if last.Total != 10 || last.Done != 10 || last.Fresh != 10 {
		t.Errorf("final sweep progress %+v, want 10 fresh cells of 10", last)
	}
	panels, _ := spec.Panels(compile.Config{}, 0)
	if len(results) != len(panels) {
		t.Fatalf("RunSweep returned %d panels, want %d", len(results), len(panels))
	}
	csvs := map[string][]byte{}
	for i, pj := range panels {
		name := pj.Label + ".csv"
		got, err := runstore.ReadArtifact(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != results[i].CSV() {
			t.Errorf("%s does not hold panel %d's CSV", name, i)
		}
		if csvs[name], err = os.ReadFile(filepath.Join(dir, name)); err != nil {
			t.Fatal(err)
		}
	}
	resumeRestoresEverything(t, dir, spec, csvs)
}

// TestRunSweepShardWritesNoCSV: a run opened as a shard runs only its
// own cells, checkpoints them and writes no CSV, its panels being
// partial.
func TestRunSweepShardWritesNoCSV(t *testing.T) {
	spec := tinySweep(t)
	shard := experiment.Shard{Index: 0, Count: 2}
	dir := filepath.Join(t.TempDir(), "shard0")
	run := openSweep(t, dir, spec, shard, false)
	if _, err := experiment.RunSweep(context.Background(), newTrajRunner(2), spec, experiment.SweepOptions{
		Run: run,
	}); err != nil {
		t.Fatal(err)
	}
	csvs, _ := filepath.Glob(filepath.Join(dir, "*.csv"))
	if len(csvs) != 0 {
		t.Errorf("sharded sweep wrote %v", csvs)
	}
	_, keys := spec.Panels(compile.Config{}, 0)
	for _, key := range keys {
		if _, ok := run.LookupPoint(key); ok != shard.Owns(key) {
			t.Errorf("cell %s checkpointed = %v, want %v (owned)", key, ok, shard.Owns(key))
		}
	}
}

// TestParentFig3RunResumes: testdata/fig3_parent_run is the run
// directory the previous release wrote for tinySweep's flags (`fig3
// -budget quick -instances 1 -shots 32 -traj 1 -axis 2q -orders 1:1,1:2
// -rates 0.5 -seed 777 -rundir`). Today's spec must hash to its
// manifest's config hash and decode from its spec.json, and resuming a
// copy must restore every cell and rewrite its CSVs byte for byte.
func TestParentFig3RunResumes(t *testing.T) {
	const parentHash = "054bff5688f7d2b0f35bfc4f7326e0bb"
	spec := tinySweep(t)
	if hash, err := runstore.HashConfig(spec); err != nil || hash != parentHash {
		t.Fatalf("fig3 spec hashes to %s (%v), want the parent's %s", hash, err, parentHash)
	}
	src := filepath.Join("testdata", "fig3_parent_run")
	var recorded experiment.SweepSpec
	if ok, err := runstore.ReadSpec(src, &recorded); !ok || err != nil {
		t.Fatalf("read parent spec: ok %v, err %v", ok, err)
	}
	if hash, _ := runstore.HashConfig(recorded); hash != parentHash {
		t.Errorf("parent spec.json decodes to a spec hashing to %s, want %s", hash, parentHash)
	}
	dir := filepath.Join(t.TempDir(), "run")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	csvs := map[string][]byte{}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
		if filepath.Ext(e.Name()) == ".csv" {
			csvs[e.Name()] = data
		}
	}
	if len(csvs) != 2 {
		t.Fatalf("fixture holds %d CSVs, want 2", len(csvs))
	}
	resumeRestoresEverything(t, dir, spec, csvs)
}
