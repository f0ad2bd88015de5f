package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"path/filepath"

	"qfarith/internal/compile"
	"qfarith/internal/experiment"
	"qfarith/internal/runstore"
)

// runMergeRuns implements the merge-runs subcommand: union the
// checkpoint logs of shard run directories into one run directory,
// verify they belong to the same sweep (config hash), report benign
// overlaps and grid gaps, and regenerate the sweep's panel CSVs from
// its recorded spec, byte-identical to what an unsharded run of the
// same configuration writes. It returns the exit status.
//
//	qfarith merge-runs -out merged runs/shard0 runs/shard1 runs/shard2
func runMergeRuns(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("merge-runs", flag.ContinueOnError)
	fs.SetOutput(stderr)
	out := fs.String("out", "", "destination run directory for the merged run (must not already hold a run)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	srcs := fs.Args()
	if *out == "" || len(srcs) == 0 {
		fmt.Fprintln(stderr, "usage: qfarith merge-runs -out DIR SHARD_DIR [SHARD_DIR...]")
		return 2
	}

	report, err := runstore.MergeRuns(*out, srcs)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	fmt.Fprintf(stdout, "merged %d shard(s) into %s: %d points", len(report.Shards), *out, report.Points)
	if report.Overlaps > 0 {
		fmt.Fprintf(stdout, ", %d overlapping key(s) with identical payloads", report.Overlaps)
	}
	fmt.Fprintln(stdout)
	if len(report.Gaps) > 0 {
		fmt.Fprintf(stdout, "WARNING: %d grid point(s) missing from the union:\n", len(report.Gaps))
		for i, key := range report.Gaps {
			if i == 10 {
				fmt.Fprintf(stdout, "  ... and %d more\n", len(report.Gaps)-10)
				break
			}
			fmt.Fprintf(stdout, "  %s\n", key)
		}
		fmt.Fprintf(stdout, "run the missing shard(s), or resume the merged run to compute the gaps:\n  qfarith <command> <same flags> -rundir %s -resume\n", *out)
		return 1
	}
	if err := rebuildCSVs(*out, stdout); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	return 0
}

// rebuildCSVs writes the panel CSVs of the complete run in dir from its
// checkpoint log, enumerating the panels of its recorded SweepSpec.
// Rebuilding never runs a panel, so the pipeline config and worker
// bound are irrelevant: zero values.
func rebuildCSVs(dir string, stdout io.Writer) error {
	run, err := runstore.Resume(dir, "")
	if err != nil {
		return err
	}
	defer run.Close()
	var spec experiment.SweepSpec
	ok, err := runstore.ReadSpec(dir, &spec)
	if err != nil {
		return err
	}
	var panels []experiment.PanelJob
	if ok {
		panels, _ = spec.Panels(compile.Config{}, 0)
	}
	if len(panels) == 0 {
		return fmt.Errorf("%s: no sweep spec to rebuild CSVs from (run directory from an older qfarith?)", dir)
	}
	for _, pj := range panels {
		res, err := experiment.PanelFromCheckpoints(pj.Config, pj.Label, run)
		if err != nil {
			return err
		}
		path := filepath.Join(dir, pj.Label+".csv")
		if err := runstore.WriteArtifact(path, []byte(res.CSV())); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %s\n", path)
	}
	return nil
}
