package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"qfarith/internal/backend"
	"qfarith/internal/experiment"
	"qfarith/internal/server"
)

// TestGoldenOutputs regenerates the committed reference stdout of the
// E4, E6, E7 and E10 commands in-process and compares the bytes. The
// references were written by the binary before these commands moved
// onto experiment.RunSweep, so any change to a printed number or to
// the layout shows up here as a reviewed golden diff.
func TestGoldenOutputs(t *testing.T) {
	for _, c := range []struct {
		name string
		args []string
		ref  string
	}{
		{"ablate-addcut", []string{"-budget", "quick"}, "addcut_ref/quick.txt"},
		{"ablate-routing", []string{"-instances", "2", "-workers", "2"}, "routed_ref/ablate-routing_i2_w2.txt"},
		{"scaling", nil, "scaling_ref/default.txt"},
		{"claim-2q", []string{"-budget", "standard", "-seed", "777", "-out", t.TempDir()}, "claim2q_ref/standard_777.txt"},
	} {
		t.Run(c.name, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("..", "..", "results", c.ref))
			if err != nil {
				t.Fatal(err)
			}
			var stdout, stderr bytes.Buffer
			if code := runSweep(c.name, c.args, &stdout, &stderr); code != 0 {
				t.Fatalf("exit %d: %s", code, stderr.String())
			}
			if !bytes.Equal(stdout.Bytes(), want) {
				t.Errorf("stdout differs from results/%s:\n got:\n%s\nwant:\n%s", c.ref, stdout.Bytes(), want)
			}
		})
	}
}

// TestScorerReferenceCSVs regenerates the margin-only quick fig3 and
// fig4 panels of results/scorer_ref/ in-process and compares the CSV
// bytes, checksum footer included.
func TestScorerReferenceCSVs(t *testing.T) {
	for _, name := range []string{"fig3", "fig4"} {
		out := t.TempDir()
		args := []string{"-budget", "quick", "-axis", "2q", "-orders", "1:2", "-seed", "777", "-scorers", "margin", "-out", out}
		var stderr bytes.Buffer
		if code := runSweep(name, args, io.Discard, &stderr); code != 0 {
			t.Fatalf("%s exited %d: %s", name, code, stderr.String())
		}
		file := name + "_2q_12.csv"
		want, err := os.ReadFile(filepath.Join("..", "..", "results", "scorer_ref", file))
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(out, file))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s differs from results/scorer_ref/:\n got %s\nwant %s", file, got, want)
		}
	}
}

// TestSweepFlagDefaults: every sweep subcommand's flag defaults parse
// to the spec qfarithd builds for a job naming only the command, so
// the CLI and the daemon agree on what an unadorned sweep is.
func TestSweepFlagDefaults(t *testing.T) {
	for _, name := range experiment.SweepCommands {
		sf, err := parseSweep(name, nil, io.Discard)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want, err := server.JobRequest{Command: name}.Spec(backend.DefaultName)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(sf.spec, want) {
			t.Errorf("%s default spec\n got %+v\nwant %+v", name, sf.spec, want)
		}
		_, _, figure := experiment.FigureSweep(name)
		if wantOut := map[bool]string{true: "results"}[figure || name == "claim-2q"]; sf.outDir != wantOut {
			t.Errorf("%s -out default %q, want %q", name, sf.outDir, wantOut)
		}
		if sf.rundir != "" || sf.resume || sf.shard.Enabled() || sf.workers != 0 {
			t.Errorf("%s run defaults %+v", name, sf)
		}
	}
	sf, err := parseSweep("scaling", []string{"-n", "4,5", "-rates", "2", "-instances", "3", "-scorers", "xeb"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if s := sf.spec; !reflect.DeepEqual(s.Widths, []int{4, 5}) || !reflect.DeepEqual(s.Rates2Q, []float64{0.02}) ||
		s.Instances != 3 || s.Traj != 16 || !reflect.DeepEqual(s.Scorers, []string{"xeb"}) {
		t.Errorf("scaling flags parsed to %+v", s)
	}
	sf, err = parseSweep("ablate-routing", []string{"-p2", "0.007"}, io.Discard)
	if err != nil || sf.spec.Rates2Q[0] != 0.007 {
		t.Errorf("ablate-routing -p2 0.007 parsed to %+v, %v", sf, err)
	}
}

// TestSweepFlagErrors: a malformed or unknown flag on any sweep
// subcommand exits with status 2 before anything runs.
func TestSweepFlagErrors(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "run")
	cases := []struct {
		name string
		args []string
	}{
		{"scaling", []string{"-n", "4,x"}},
		{"scaling", []string{"-n", "1"}},
		{"scaling", []string{"-rates", "150"}},
		{"scaling", []string{"-budget", "quick"}},
		{"scaling", []string{"-resume"}},
		{"ablate-routing", []string{"-passes", "decompose,route,fuse"}},
		{"ablate-routing", []string{"-p2", "2"}},
		{"ablate-routing", []string{"-seed", "1"}},
		{"fig3", []string{"-resume"}},
		{"fig3", []string{"-orders", "0:2"}},
		{"fig3", []string{"-rates", "150"}},
		{"fig3", []string{"-shard", "0/2"}},
		{"fig3", []string{"-shard", "2/2", "-rundir", dir}},
		{"fig3", []string{"-backend", "nope"}},
		{"fig3", []string{"-passes", "nope"}},
		{"fig4", []string{"-axis", "3q"}},
		{"fig4-signed", []string{"-budget", "huge"}},
		{"fig3-signed", []string{"-scorers", "nope"}},
		{"claim-2q", []string{"-axis", "1q"}},
		{"claim-2q", []string{"-shard", "0/2", "-rundir", dir}},
		{"ablate-addcut", []string{"-rundir", dir}},
		{"ablate-addcut", []string{"-out", dir}},
		{"ablate-addcut", []string{"-shard", "0/2"}},
		{"ablate-addcut", []string{"-scorers", "xeb"}},
	}
	for _, name := range experiment.SweepCommands {
		cases = append(cases, struct {
			name string
			args []string
		}{name, []string{"-nope"}})
	}
	for _, c := range cases {
		if code := runSweep(c.name, c.args, io.Discard, io.Discard); code != 2 {
			t.Errorf("%s %v exited %d, want 2", c.name, c.args, code)
		}
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Errorf("a refused command created its run directory: %v", err)
	}
}

// TestScalingShardMerge: scaling sharded 0/2 and 1/2, merged by
// merge-runs (runstore.MergeRuns, then the CSVs rebuilt through
// experiment.PanelFromCheckpoints), writes the same CSV bytes as an
// unsharded -rundir run.
func TestScalingShardMerge(t *testing.T) {
	tmp := t.TempDir()
	args := []string{"-n", "4,5", "-instances", "2", "-traj", "2", "-shots", "64", "-workers", "2"}
	run := func(extra ...string) {
		t.Helper()
		var stderr bytes.Buffer
		if code := runSweep("scaling", append(append([]string{}, args...), extra...), io.Discard, &stderr); code != 0 {
			t.Fatalf("scaling %v exited %d: %s", extra, code, stderr.String())
		}
	}
	whole, s0, s1, merged := filepath.Join(tmp, "whole"), filepath.Join(tmp, "s0"), filepath.Join(tmp, "s1"), filepath.Join(tmp, "merged")
	run("-rundir", whole)
	run("-rundir", s0, "-shard", "0/2")
	run("-rundir", s1, "-shard", "1/2")
	for _, shard := range []string{s0, s1} {
		if csvs, _ := filepath.Glob(filepath.Join(shard, "*.csv")); len(csvs) != 0 {
			t.Errorf("shard %s wrote CSVs %v", shard, csvs)
		}
		if fi, err := os.Stat(filepath.Join(shard, "points.jsonl")); err != nil || fi.Size() == 0 {
			t.Errorf("shard %s checkpointed nothing (%v)", shard, err)
		}
	}
	var stderr bytes.Buffer
	if code := runMergeRuns([]string{"-out", merged, s0, s1}, io.Discard, &stderr); code != 0 {
		t.Fatalf("merge-runs exited %d: %s", code, stderr.String())
	}
	want, _ := filepath.Glob(filepath.Join(whole, "*.csv"))
	if len(want) != 2 {
		t.Fatalf("unsharded run wrote %d CSVs, want one per width", len(want))
	}
	for _, path := range want {
		w, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		g, err := os.ReadFile(filepath.Join(merged, filepath.Base(path)))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(g, w) {
			t.Errorf("merged %s differs from the unsharded run's:\n got %s\nwant %s", filepath.Base(path), g, w)
		}
	}
}
