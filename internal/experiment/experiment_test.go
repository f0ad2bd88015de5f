package experiment_test

import (
	"context"
	"math"
	"reflect"
	"strings"
	"testing"

	"qfarith/internal/experiment"
	"qfarith/internal/noise"
	"qfarith/internal/qft"
)

func smallAddPoint(model noise.Model, orderX, orderY int) experiment.PointConfig {
	return experiment.PointConfig{
		Geometry:     experiment.AddGeometry(3, 4), // small for test speed
		Depth:        qft.Full,
		Model:        model,
		OrderX:       orderX,
		OrderY:       orderY,
		Instances:    6,
		Shots:        256,
		Trajectories: 6,
		RowSeed:      11,
		PointSeed:    13,
	}
}

// runPoint runs cfg on a fresh trajectory runner with cfg.Workers
// slots.
func runPoint(t testing.TB, cfg experiment.PointConfig) experiment.PointResult {
	t.Helper()
	r, err := experiment.RunPoint(context.Background(), newTrajRunner(cfg.Workers), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// runPanel runs pc on a fresh trajectory runner with its budget's
// worker count.
func runPanel(t testing.TB, pc experiment.PanelConfig, progress experiment.ProgressFunc) experiment.PanelResult {
	t.Helper()
	res, err := experiment.RunPanel(context.Background(), newTrajRunner(pc.Budget.Workers), pc, experiment.PanelOptions{Progress: progress})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestNoiselessAdditionAlwaysSucceeds(t *testing.T) {
	for _, orders := range [][2]int{{1, 1}, {1, 2}, {2, 2}} {
		r := runPoint(t, smallAddPoint(noise.Noiseless, orders[0], orders[1]))
		if r.Stats.SuccessRate != 100 {
			t.Errorf("orders %v: noiseless full-depth success %.1f%%, want 100%%", orders, r.Stats.SuccessRate)
		}
		if r.NoErrorProb != 1 {
			t.Errorf("noiseless w0 = %g", r.NoErrorProb)
		}
	}
}

func TestExtremeNoiseDestroysSuccess(t *testing.T) {
	cfg := smallAddPoint(noise.PaperModel(0.2, 0.3), 2, 2)
	r := runPoint(t, cfg)
	if r.Stats.SuccessRate > 50 {
		t.Errorf("extreme noise success %.1f%%, expected collapse", r.Stats.SuccessRate)
	}
	if r.NoErrorProb > 1e-6 {
		t.Errorf("w0 = %g under extreme noise", r.NoErrorProb)
	}
}

func TestDeterministicGivenSeeds(t *testing.T) {
	cfg := smallAddPoint(noise.PaperModel(0.01, 0.01), 1, 2)
	a := runPoint(t, cfg)
	b := runPoint(t, cfg)
	if !reflect.DeepEqual(a.Stats, b.Stats) {
		t.Errorf("same seeds gave different stats: %+v vs %+v", a.Stats, b.Stats)
	}
	cfg.PointSeed++
	c := runPoint(t, cfg)
	// Different noise seed may coincidentally match, but the margin mean
	// almost surely differs.
	if reflect.DeepEqual(a.Stats, c.Stats) {
		t.Log("note: different PointSeed produced identical stats (possible but unlikely)")
	}
}

func TestRowSeedFixesOperandsAcrossColumns(t *testing.T) {
	// The paper shares operand sets between the 1q and 2q columns. With
	// equal RowSeed and zero noise, the two "columns" must agree exactly
	// even when PointSeed differs (shot sampling differs, but noiseless
	// full-depth addition is deterministic: all mass on correct outputs).
	a := smallAddPoint(noise.Noiseless, 2, 2)
	b := a
	b.PointSeed = 999
	ra := runPoint(t, a)
	rb := runPoint(t, b)
	if ra.Stats.Successes != rb.Stats.Successes {
		t.Errorf("operand sharing broken: %d vs %d successes", ra.Stats.Successes, rb.Stats.Successes)
	}
}

func TestMulPointSmall(t *testing.T) {
	cfg := experiment.PointConfig{
		Geometry:     experiment.MulGeometry(2, 2),
		Depth:        qft.Full,
		Model:        noise.Noiseless,
		OrderX:       2,
		OrderY:       2,
		Instances:    4,
		Shots:        256,
		Trajectories: 4,
		RowSeed:      7,
		PointSeed:    8,
	}
	r := runPoint(t, cfg)
	if r.Stats.SuccessRate != 100 {
		t.Errorf("noiseless 2:2 multiplication success %.1f%%, want 100%%", r.Stats.SuccessRate)
	}
}

func TestDepthOneDegradesNoiselessAddition(t *testing.T) {
	// The paper's headline noiseless observation: depth 1 causes
	// arithmetic errors even without gate noise, while full depth never
	// does. Use the paper geometry so the approximation bites.
	full := experiment.PointConfig{
		Geometry: experiment.PaperAddGeometry(),
		Depth:    qft.Full,
		Model:    noise.Noiseless,
		OrderX:   1, OrderY: 1,
		Instances: 12, Shots: 512, Trajectories: 1,
		RowSeed: 3, PointSeed: 4,
	}
	d1 := full
	d1.Depth = 1
	rFull := runPoint(t, full)
	rD1 := runPoint(t, d1)
	if rFull.Stats.SuccessRate != 100 {
		t.Errorf("full depth noiseless: %.1f%%", rFull.Stats.SuccessRate)
	}
	if rD1.Stats.SuccessRate >= rFull.Stats.SuccessRate {
		t.Logf("depth-1 noiseless matched full depth on this operand draw (%.1f%%) — acceptable but uncommon", rD1.Stats.SuccessRate)
	}
}

func TestGateCountsReportedMatchTable(t *testing.T) {
	cfg := experiment.PointConfig{
		Geometry: experiment.PaperAddGeometry(),
		Depth:    2,
		Model:    noise.Noiseless,
		OrderX:   1, OrderY: 1,
		Instances: 1, Shots: 16, Trajectories: 1,
	}
	r := runPoint(t, cfg)
	if r.Paper1q != 199 || r.Paper2q != 122 {
		t.Errorf("paper counts (%d, %d), want (199, 122)", r.Paper1q, r.Paper2q)
	}
}

func TestPanelCSVAndTable(t *testing.T) {
	pc := experiment.PanelConfig{
		Geometry: experiment.AddGeometry(2, 3),
		Axis:     experiment.Axis2Q,
		OrderX:   1, OrderY: 1,
		Rates:  []float64{0, 0.02},
		Depths: []int{1, qft.Full},
		Budget: experiment.Budget{Instances: 3, Shots: 128, Trajectories: 3},
		Seed:   42,
	}
	calls := 0
	res := runPanel(t, pc, func(p experiment.Progress) {
		calls++
		if p.Total != 4 {
			t.Errorf("total = %d, want 4", p.Total)
		}
		if p.FromCheckpoint || p.Restored != 0 {
			t.Error("plain panel reported checkpoint-restored points")
		}
	})
	if calls != 4 {
		t.Errorf("progress called %d times, want 4", calls)
	}
	csv := res.CSV()
	if !strings.HasPrefix(csv, "op,axis,rate_pct") {
		t.Error("CSV missing header")
	}
	if lines := strings.Count(csv, "\n"); lines != 5 {
		t.Errorf("CSV has %d lines, want 5 (header + 4 points)", lines)
	}
	tbl := res.Table()
	if !strings.Contains(tbl, "d=full") || !strings.Contains(tbl, "d=1") {
		t.Errorf("table missing depth headers:\n%s", tbl)
	}
}

func TestWorkerParallelismMatchesSerial(t *testing.T) {
	cfg := smallAddPoint(noise.PaperModel(0.01, 0.02), 1, 2)
	cfg.Instances = 8
	serial := cfg
	serial.Workers = 1
	parallel := cfg
	parallel.Workers = 4
	rs := runPoint(t, serial)
	rp := runPoint(t, parallel)
	if !reflect.DeepEqual(rs.Stats, rp.Stats) {
		t.Errorf("parallel instances changed results: %+v vs %+v", rs.Stats, rp.Stats)
	}
}

func TestDepthLabel(t *testing.T) {
	if got := experiment.DepthLabel(qft.Full, 8); got != "full" {
		t.Errorf("DepthLabel(Full) = %q", got)
	}
	if got := experiment.DepthLabel(7, 8); got != "full" {
		t.Errorf("DepthLabel(7, 8) = %q (7 is the full depth for 8 qubits)", got)
	}
	if got := experiment.DepthLabel(3, 8); got != "3" {
		t.Errorf("DepthLabel(3, 8) = %q", got)
	}
}

func TestExpectedErrorsScaleWithRate(t *testing.T) {
	lo := runPoint(t, smallAddPoint(noise.PaperModel(0.001, 0), 1, 1))
	hi := runPoint(t, smallAddPoint(noise.PaperModel(0.002, 0), 1, 1))
	ratio := hi.ExpectedErrors / lo.ExpectedErrors
	if math.Abs(ratio-2) > 1e-9 {
		t.Errorf("expected errors should scale linearly with rate: ratio %g", ratio)
	}
}
