package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"qfarith/internal/compile"
	"qfarith/internal/experiment"
	"qfarith/internal/runstore"
)

// runMergeRuns implements the merge-runs subcommand: union the
// checkpoint logs of shard run directories into one run directory,
// verify they belong to the same sweep (config hash), report benign
// overlaps and grid gaps, and — when the shards carry a panel sweep
// spec (figures, claim-2q) — regenerate the final CSVs, byte-identical
// to what an unsharded run of the same configuration writes.
//
//	qfarith merge-runs -out merged runs/shard0 runs/shard1 runs/shard2
func runMergeRuns(args []string) {
	fs := flag.NewFlagSet("merge-runs", flag.ExitOnError)
	out := fs.String("out", "", "destination run directory for the merged run (must not already hold a run)")
	fs.Parse(args)
	srcs := fs.Args()
	if *out == "" || len(srcs) == 0 {
		fmt.Fprintln(os.Stderr, "usage: qfarith merge-runs -out DIR SHARD_DIR [SHARD_DIR...]")
		exit(2)
	}

	report, err := runstore.MergeRuns(*out, srcs)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		exit(1)
	}
	fmt.Printf("merged %d shard(s) into %s: %d points", len(report.Shards), *out, report.Points)
	if report.Overlaps > 0 {
		fmt.Printf(", %d overlapping key(s) with identical payloads", report.Overlaps)
	}
	fmt.Println()
	if len(report.Gaps) > 0 {
		fmt.Printf("WARNING: %d grid point(s) missing from the union:\n", len(report.Gaps))
		for i, key := range report.Gaps {
			if i == 10 {
				fmt.Printf("  ... and %d more\n", len(report.Gaps)-10)
				break
			}
			fmt.Printf("  %s\n", key)
		}
		fmt.Printf("run the missing shard(s), or resume the merged run to compute the gaps:\n  qfarith <command> <same flags> -rundir %s -resume\n", *out)
		exit(1)
	}

	run, err := runstore.Resume(*out, "")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		exit(1)
	}
	onExit(func() { run.Close() })
	// The CSVs are rebuilt from any recorded spec that enumerates panels.
	// Other runs — no spec sidecar (older run directories), or a spec
	// that is not a SweepSpec (scaling, ablate-routing) — re-render
	// through a resume. CSV regeneration never runs panels, so the
	// pipeline config and worker bound are irrelevant: zero values.
	var spec experiment.SweepSpec
	var panels []experiment.PanelJob
	if ok, err := runstore.ReadSpec(*out, &spec); ok && err == nil {
		panels, _ = spec.Panels(compile.Config{}, 0)
	}
	if len(panels) == 0 {
		cmd := run.Manifest().Command
		fmt.Printf("merged %s run; re-render its output by resuming:\n  qfarith %s <same flags> -rundir %s -resume\n", cmd, cmd, *out)
		return
	}
	for _, pj := range panels {
		res, err := experiment.PanelFromCheckpoints(pj.Config, pj.Label, run)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			exit(1)
		}
		path := filepath.Join(*out, pj.Label+".csv")
		if err := runstore.WriteArtifact(path, []byte(res.CSV())); err != nil {
			fmt.Fprintln(os.Stderr, err)
			exit(1)
		}
		fmt.Printf("wrote %s\n", path)
	}
}
