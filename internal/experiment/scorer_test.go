package experiment_test

import (
	"context"
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"qfarith/internal/experiment"
	"qfarith/internal/noise"
	"qfarith/internal/qft"
	"qfarith/internal/runstore"
)

// TestSignedPointsNoiselessSucceed is the signed-workload sanity bar:
// with zero noise at full depth, subtraction and signed multiplication
// must succeed on every instance, exactly like their unsigned
// counterparts — the correct sets and circuits agree on the
// two's-complement encoding.
func TestSignedPointsNoiselessSucceed(t *testing.T) {
	sub := experiment.PointConfig{
		Geometry: experiment.SubGeometry(3, 4),
		Depth:    qft.Full,
		Model:    noise.Noiseless,
		OrderX:   2, OrderY: 2,
		Instances: 6, Shots: 256, Trajectories: 6,
		RowSeed: 11, PointSeed: 13,
	}
	if r := runPoint(t, sub); r.Stats.SuccessRate != 100 {
		t.Errorf("noiseless subtraction success %.1f%%, want 100%%", r.Stats.SuccessRate)
	}
	smul := sub
	smul.Geometry = experiment.SignedMulGeometry(2, 2)
	if r := runPoint(t, smul); r.Stats.SuccessRate != 100 {
		t.Errorf("noiseless signed multiplication success %.1f%%, want 100%%", r.Stats.SuccessRate)
	}
}

// TestPointScorersMatchBaseStats runs one noisy point with every
// registered scorer attached and checks the two invariants the refactor
// promises: the frozen margin statistics are untouched by the extra
// scoring pass, and the "margin" scorer's Extra columns reproduce them
// bit for bit from the same evidence.
func TestPointScorersMatchBaseStats(t *testing.T) {
	base := experiment.PointConfig{
		Geometry: experiment.AddGeometry(3, 4),
		Depth:    2,
		Model:    noise.PaperModel(0.002, 0.005),
		OrderX:   1, OrderY: 2,
		Instances: 6, Shots: 256, Trajectories: 6,
		RowSeed: 21, PointSeed: 23,
	}
	ref := runPoint(t, base)

	scored := base
	scored.Scorers = []string{"margin", "xeb", "roundtrip"}
	r := runPoint(t, scored)

	st := r.Stats
	st.Extra = nil
	if !reflect.DeepEqual(st, ref.Stats) {
		t.Errorf("extra scorers perturbed base stats:\n%+v\nvs\n%+v", st, ref.Stats)
	}

	extra := map[string]float64{}
	for _, mv := range r.Stats.Extra {
		extra[mv.Name] = mv.Value
	}
	for name, want := range map[string]float64{
		"success_pct":   ref.Stats.SuccessRate,
		"lower_bar_pct": ref.Stats.LowerBar,
		"upper_bar_pct": ref.Stats.UpperBar,
		"margin_mean":   ref.Stats.MarginMean,
		"margin_sigma":  ref.Stats.MarginSigma,
		"mean_fidelity": ref.Stats.MeanFidelity,
	} {
		got, ok := extra[name]
		if !ok {
			t.Errorf("margin scorer column %q missing from Extra %v", name, r.Stats.Extra)
			continue
		}
		if got != want {
			t.Errorf("margin scorer %s = %v, frozen path %v", name, got, want)
		}
	}
	if xeb, ok := extra["xeb"]; !ok || xeb <= 0 || xeb > 1.5 {
		t.Errorf("xeb column = %v (present %v), want a sane positive value", xeb, ok)
	}
	if rt, ok := extra["roundtrip_pct"]; !ok || rt <= 0 || rt > 100 {
		t.Errorf("roundtrip_pct column = %v (present %v), want (0, 100]", rt, ok)
	}
}

// TestPanelScorerCSVRoundTrip: a panel with extra scorers appends their
// columns after the frozen 17-column schema, and ParseCSV hands them
// back by name, so downstream reports survive schema growth.
func TestPanelScorerCSVRoundTrip(t *testing.T) {
	pc := smallSweepPanel()
	pc.Scorers = []string{"xeb", "roundtrip"}
	res := runPanel(t, pc, nil)

	csv := res.CSV()
	header := csv[:strings.IndexByte(csv, '\n')]
	if !strings.HasSuffix(header, ",xeb,roundtrip_pct") {
		t.Fatalf("header missing scorer columns: %q", header)
	}
	rows, err := experiment.ParseCSV(csv)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(pc.Rates)*len(pc.Depths) {
		t.Fatalf("parsed %d rows", len(rows))
	}
	for k, row := range rows {
		i, j := k/len(pc.Depths), k%len(pc.Depths)
		for _, mv := range res.Points[i][j].Stats.Extra {
			want := fmt.Sprintf("%.6f", mv.Value)
			got := fmt.Sprintf("%.6f", row.Extra[mv.Name])
			if got != want {
				t.Errorf("row %d %s = %s, want %s", k, mv.Name, got, want)
			}
		}
	}
}

// TestParseCSVExtraColumnsTolerant: the parser must accept trailing
// metric columns it has never heard of — future scorers, other tools —
// and keep naming lines in its errors.
func TestParseCSVExtraColumnsTolerant(t *testing.T) {
	header := "op,axis,rate_pct,depth,order_x,order_y,success_pct,some_future_metric\n"
	rows, err := experiment.ParseCSV(header + "qfa,2q,1.000,1,1,1,50.00,0.125000\n")
	if err != nil {
		t.Fatal(err)
	}
	if got := rows[0].Extra["some_future_metric"]; got != 0.125 {
		t.Errorf("extra column = %v, want 0.125", got)
	}
	// A row without extras parses with a nil Extra map.
	plain, err := experiment.ParseCSV("op,axis,rate_pct,depth,order_x,order_y,success_pct\nqfa,2q,1.000,1,1,1,50.00\n")
	if err != nil {
		t.Fatal(err)
	}
	if plain[0].Extra != nil {
		t.Errorf("plain row grew Extra: %v", plain[0].Extra)
	}
	// Corrupt extra cells are parse errors naming line and column, not
	// silent zeros.
	_, err = experiment.ParseCSV(header +
		"qfa,2q,1.000,1,1,1,50.00,0.100000\n" +
		"qfa,2q,1.000,2,1,1,50.00,garbage\n")
	if err == nil {
		t.Fatal("corrupt extra column: expected error")
	}
	if !strings.Contains(err.Error(), "some_future_metric") || !strings.Contains(err.Error(), "line 3") {
		t.Errorf("error %q does not name column and line 3", err)
	}
}

// TestSignedShardedPanelMerge reruns the merge property test on a
// signed-subtraction panel with an extra scorer attached: shards,
// merge, and checkpoint-rebuild must reproduce the unsharded CSV byte
// for byte, proving the sharding machinery is workload- and
// scorer-agnostic.
func TestSignedShardedPanelMerge(t *testing.T) {
	pc := experiment.PanelConfig{
		Geometry: experiment.SubGeometry(2, 3),
		Axis:     experiment.Axis2Q,
		OrderX:   1, OrderY: 2,
		Rates:   []float64{0, 0.02},
		Depths:  []int{1, qft.Full},
		Budget:  experiment.Budget{Instances: 4, Shots: 128, Trajectories: 4},
		Seed:    20260808,
		Scorers: []string{"xeb"},
	}
	const panel = "fig3signed_test"

	ref, err := experiment.RunPanel(context.Background(), newTrajRunner(2), pc, experiment.PanelOptions{})
	if err != nil {
		t.Fatal(err)
	}

	root := t.TempDir()
	const n = 2
	shardDirs := make([]string, n)
	for i := 0; i < n; i++ {
		shard := experiment.Shard{Index: i, Count: n}
		dir := filepath.Join(root, shard.String())
		run, err := runstore.Create(dir, runstore.Manifest{
			Command: "test", ConfigHash: "cfg", Shard: shard.String(),
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := experiment.RunPanel(context.Background(), newTrajRunner(2), pc, experiment.PanelOptions{Label: panel, Shard: shard, Checkpoint: run}); err != nil {
			t.Fatal(err)
		}
		run.Close()
		shardDirs[i] = dir
	}

	merged := filepath.Join(root, "merged")
	if _, err := runstore.MergeRuns(merged, shardDirs); err != nil {
		t.Fatal(err)
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
		t.Errorf("merged signed-panel CSV differs from unsharded run:\n--- merged ---\n%s--- unsharded ---\n%s", got, want)
	}
	if !strings.Contains(res.CSV(), "qfs,") {
		t.Error("signed panel CSV does not label rows with the qfs op")
	}
	if !strings.Contains(strings.SplitN(res.CSV(), "\n", 2)[0], ",xeb") {
		t.Error("signed panel CSV missing the xeb scorer column")
	}
}
