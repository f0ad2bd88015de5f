package experiment_test

import (
	"context"
	"path/filepath"
	"reflect"
	"testing"

	"qfarith/internal/experiment"
	"qfarith/internal/runstore"
)

func TestParseShard(t *testing.T) {
	good := map[string]experiment.Shard{
		"":    {},
		"0/1": {Index: 0, Count: 1},
		"0/3": {Index: 0, Count: 3},
		"2/3": {Index: 2, Count: 3},
	}
	for s, want := range good {
		got, err := experiment.ParseShard(s)
		if err != nil || got != want {
			t.Errorf("ParseShard(%q) = %+v, %v; want %+v", s, got, err, want)
		}
	}
	for _, s := range []string{"3/3", "4/3", "-1/3", "0/0", "0", "a/b", "0/3x", "1//3"} {
		if sh, err := experiment.ParseShard(s); err == nil {
			t.Errorf("ParseShard(%q) accepted as %+v, want error", s, sh)
		}
	}
}

// TestShardPartitionsGrid: across any N, every key is owned by exactly
// one shard, and the zero-value / 1-way shard owns everything.
func TestShardPartitionsGrid(t *testing.T) {
	pc := smallSweepPanel()
	keys := pc.Keys("fig3_test")
	if len(keys) != len(pc.Rates)*len(pc.Depths) {
		t.Fatalf("Keys() enumerated %d keys, want %d", len(keys), len(pc.Rates)*len(pc.Depths))
	}
	all := experiment.Shard{}
	for _, key := range keys {
		if !all.Owns(key) {
			t.Errorf("zero-value shard does not own %s", key)
		}
	}
	for _, n := range []int{1, 2, 3, 5} {
		for _, key := range keys {
			owners := 0
			for i := 0; i < n; i++ {
				if (experiment.Shard{Index: i, Count: n}).Owns(key) {
					owners++
				}
			}
			if owners != 1 {
				t.Errorf("key %s owned by %d of %d shards, want exactly 1", key, owners, n)
			}
		}
	}
	// OwnedKeys must partition the enumeration.
	total := 0
	for i := 0; i < 3; i++ {
		total += len((experiment.Shard{Index: i, Count: 3}).OwnedKeys(keys))
	}
	if total != len(keys) {
		t.Errorf("3-way OwnedKeys cover %d of %d keys", total, len(keys))
	}
}

// TestShardedPanelsMergeByteIdentical is the merge property test: run
// the panel as 3 shards into 3 run directories, merge them with
// runstore.MergeRuns, rebuild the panel purely from the merged
// checkpoints, and require the CSV to be byte-identical to an
// uninterrupted unsharded run — the acceptance bar for distributing
// the paper's heaviest sweeps across workers.
func TestShardedPanelsMergeByteIdentical(t *testing.T) {
	pc := smallSweepPanel()
	const panel = "fig3_test"

	ref, err := experiment.RunPanel(context.Background(), newTrajRunner(2), pc, experiment.PanelOptions{})
	if err != nil {
		t.Fatal(err)
	}

	root := t.TempDir()
	const n = 3
	shardDirs := make([]string, n)
	ownedTotal := 0
	for i := 0; i < n; i++ {
		shard := experiment.Shard{Index: i, Count: n}
		dir := filepath.Join(root, shard.String())
		run, err := runstore.Create(dir, runstore.Manifest{
			Command: "test", ConfigHash: "cfg", Shard: shard.String(),
		})
		if err != nil {
			t.Fatal(err)
		}
		progressed := 0
		res, err := experiment.RunPanel(context.Background(), newTrajRunner(2), pc, experiment.PanelOptions{Label: panel, Shard: shard, Checkpoint: run, Progress: func(p experiment.Progress) {
			progressed++
			if want := len(shard.OwnedKeys(pc.Keys(panel))); p.Total != want {
				t.Errorf("shard %s Progress.Total = %d, want %d owned cells", shard, p.Total, want)
			}
		}})
		if err != nil {
			t.Fatal(err)
		}
		run.Close()
		owned := len(shard.OwnedKeys(pc.Keys(panel)))
		if progressed != owned {
			t.Errorf("shard %s completed %d cells, want %d", shard, progressed, owned)
		}
		ownedTotal += owned
		// The shard's own result grid must agree with the reference on
		// owned cells (unowned cells stay zero).
		for i2 := range pc.Rates {
			for j2 := range pc.Depths {
				got, want := res.Points[i2][j2], ref.Points[i2][j2]
				if shard.Owns(experiment.PointKey(panel, i2, j2)) {
					if !reflect.DeepEqual(got.Stats, want.Stats) {
						t.Errorf("shard %s cell (%d,%d) diverges from unsharded run", shard, i2, j2)
					}
				} else if got.Config.Instances != 0 {
					t.Errorf("shard %s ran unowned cell (%d,%d)", shard, i2, j2)
				}
			}
		}
		shardDirs[i] = dir
	}
	if want := len(pc.Rates) * len(pc.Depths); ownedTotal != want {
		t.Fatalf("shards own %d cells in total, want %d", ownedTotal, want)
	}

	merged := filepath.Join(root, "merged")
	report, err := runstore.MergeRuns(merged, shardDirs)
	if err != nil {
		t.Fatal(err)
	}
	if want := len(pc.Rates) * len(pc.Depths); report.Points != want {
		t.Fatalf("merged %d points, want %d", report.Points, want)
	}
	mrun, err := runstore.Resume(merged, "cfg")
	if err != nil {
		t.Fatal(err)
	}
	defer mrun.Close()
	res, err := experiment.PanelFromCheckpoints(pc, panel, mrun)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res.CSV(), ref.CSV(); got != want {
		t.Errorf("merged shard CSV differs from uninterrupted unsharded run:\n--- merged ---\n%s--- unsharded ---\n%s", got, want)
	}

	// Resuming the merged run must restore every cell and re-run none.
	fresh := 0
	res2, err := experiment.RunPanel(context.Background(), newTrajRunner(2), pc, experiment.PanelOptions{Label: panel, Checkpoint: mrun, Progress: func(p experiment.Progress) {
		if !p.FromCheckpoint {
			fresh++
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	if fresh != 0 {
		t.Errorf("resuming the merged run re-simulated %d cells, want 0", fresh)
	}
	if res2.CSV() != ref.CSV() {
		t.Error("resumed merged run CSV differs from unsharded run")
	}
}

// TestPanelFromCheckpointsReportsMissing: rebuilding from an
// incomplete store (one shard only) must fail and name a missing key.
func TestPanelFromCheckpointsReportsMissing(t *testing.T) {
	pc := smallSweepPanel()
	const panel = "fig3_test"
	dir := filepath.Join(t.TempDir(), "s0")
	run, err := runstore.Create(dir, runstore.Manifest{Command: "test", ConfigHash: "cfg", Shard: "0/3"})
	if err != nil {
		t.Fatal(err)
	}
	defer run.Close()
	shard := experiment.Shard{Index: 0, Count: 3}
	if _, err := experiment.RunPanel(context.Background(), newTrajRunner(2), pc, experiment.PanelOptions{Label: panel, Shard: shard, Checkpoint: run}); err != nil {
		t.Fatal(err)
	}
	if _, err := experiment.PanelFromCheckpoints(pc, panel, run); err == nil {
		t.Fatal("PanelFromCheckpoints accepted a single shard's incomplete store")
	}
}
