package experiment

import (
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"qfarith/internal/compile"
	"qfarith/internal/noise"
	"qfarith/internal/qft"
)

// TestSweepSpecWireFormatFrozen pins the JSON encoding of SweepSpec —
// the bytes runstore config hashes are computed over. Every run
// directory ever created embeds a SHA-256 of exactly this layout, so a
// renamed, reordered, or retyped field would silently orphan all
// existing runs (resume would refuse them as "config changed"). The
// expected literal was generated before the struct moved out of
// cmd/qfarith and verified hash-identical against the pre-refactor
// binary; it must never change. New fields must be `json:",omitempty"`.
func TestSweepSpecWireFormatFrozen(t *testing.T) {
	spec := SweepSpec{
		Command:   "fig3",
		Geometry:  PaperAddGeometry(),
		Depths:    AddDepths,
		Axes:      []ErrorAxis{Axis2Q},
		Orders:    [][2]int{{1, 2}},
		Rates1Q:   PaperRates1Q,
		Rates2Q:   PaperRates2Q,
		Instances: 8, Shots: 512, Traj: 8,
		Seed: 777, Backend: "trajectory",
		Pipeline: compile.Config{}.Hash(),
	}
	const want = `{"Command":"fig3","Geometry":{"Op":0,"XBits":7,"YBits":8,"TotalQubits":15,` +
		`"XReg":[0,1,2,3,4,5,6],"YReg":[7,8,9,10,11,12,13,14],"OutReg":[7,8,9,10,11,12,13,14],` +
		`"OutBits":8,"ProductInWires":false,"ZReg":null},"Depths":[1,2,3,4,2147483647],` +
		`"Axes":[1],"Orders":[[1,2]],"Rates1Q":[0,0.002,0.003,0.004,0.005,0.006,0.008],` +
		`"Rates2Q":[0,0.003,0.005,0.007,0.01,0.015,0.02],"Instances":8,"Shots":512,"Traj":8,` +
		`"Seed":777,"Backend":"trajectory","Pipeline":"27c8a04e7efa1a19"}`
	got, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != want {
		t.Fatalf("SweepSpec wire format changed:\n got: %s\nwant: %s", got, want)
	}
}

// TestFigureSweepCommands checks the command→geometry mapping covers
// exactly the four figure sweeps.
func TestFigureSweepCommands(t *testing.T) {
	cases := []struct {
		command string
		op      Op
		depths  []int
	}{
		{"fig3", OpAdd, AddDepths},
		{"fig4", OpMul, MulDepths},
		{"fig3-signed", OpSub, AddDepths},
		{"fig4-signed", OpMulSigned, MulDepths},
	}
	for _, c := range cases {
		geo, depths, ok := FigureSweep(c.command)
		if !ok {
			t.Fatalf("FigureSweep(%q) not ok", c.command)
		}
		if geo.Op != c.op {
			t.Errorf("FigureSweep(%q).Op = %v, want %v", c.command, geo.Op, c.op)
		}
		if len(depths) != len(c.depths) {
			t.Errorf("FigureSweep(%q) depths = %v, want %v", c.command, depths, c.depths)
		}
	}
	if _, _, ok := FigureSweep("claim-2q"); ok {
		t.Error("FigureSweep accepted a non-figure command")
	}
}

// TestPanelsEnumeration checks panel order (orders outer, axes inner),
// labels, per-axis rate grids, and the grid key list.
func TestPanelsEnumeration(t *testing.T) {
	geo, depths, _ := FigureSweep("fig3")
	spec := SweepSpec{
		Command: "fig3", Geometry: geo, Depths: depths,
		Axes:      []ErrorAxis{Axis1Q, Axis2Q},
		Orders:    [][2]int{{1, 1}, {2, 2}},
		Rates1Q:   []float64{0, 0.002},
		Rates2Q:   []float64{0, 0.01, 0.02},
		Instances: 4, Shots: 64, Traj: 2, Seed: 9,
	}
	panels, keys := spec.Panels(compile.Config{}, 3)
	wantLabels := []string{"fig3_1q_11", "fig3_2q_11", "fig3_1q_22", "fig3_2q_22"}
	if len(panels) != len(wantLabels) {
		t.Fatalf("got %d panels, want %d", len(panels), len(wantLabels))
	}
	wantKeys := 0
	for i, pj := range panels {
		if pj.Label != wantLabels[i] {
			t.Errorf("panel %d label = %q, want %q", i, pj.Label, wantLabels[i])
		}
		wantRates := spec.Rates1Q
		if pj.Config.Axis == Axis2Q {
			wantRates = spec.Rates2Q
		}
		if len(pj.Config.Rates) != len(wantRates) {
			t.Errorf("panel %s has %d rates, want %d", pj.Label, len(pj.Config.Rates), len(wantRates))
		}
		if pj.Config.Budget.Workers != 3 {
			t.Errorf("panel %s workers = %d, want 3", pj.Label, pj.Config.Budget.Workers)
		}
		if pj.Config.Seed != spec.Seed || pj.Config.Budget.Instances != spec.Instances {
			t.Errorf("panel %s did not inherit the spec's seed/budget", pj.Label)
		}
		wantKeys += len(pj.Config.Rates) * len(pj.Config.Depths)
	}
	if len(keys) != wantKeys {
		t.Fatalf("got %d grid keys, want %d", len(keys), wantKeys)
	}
	if keys[0] != PointKey("fig3_1q_11", 0, 0) {
		t.Errorf("first key = %q", keys[0])
	}
}

// TestSweepRequestRefusals: the one sweep validator behind the CLI
// flags and the daemon's job API refuses each malformed field with an
// error naming it, never a panic downstream.
func TestSweepRequestRefusals(t *testing.T) {
	for _, c := range []struct {
		name string
		req  SweepRequest
		want string
	}{
		{"order zero", SweepRequest{Command: "fig3", Orders: "0:2"}, "orders must be >= 1"},
		{"order token", SweepRequest{Command: "fig3", Orders: "1:x"}, `bad orders token "1:x"`},
		{"order too wide", SweepRequest{Command: "fig4", Orders: "1:17"}, "exceed"},
		{"rate 150", SweepRequest{Command: "fig3", RatesPct: []float64{1, 150}}, "rate 150% out of range"},
		{"rate -1", SweepRequest{Command: "fig3", RatesPct: []float64{-1}}, "rate -1% out of range"},
		{"axis", SweepRequest{Command: "fig3", Axis: "3q"}, `unknown axis "3q"`},
		{"budget", SweepRequest{Command: "fig3", Budget: "huge"}, `unknown budget "huge"`},
		{"scorer", SweepRequest{Command: "fig3", Scorers: []string{"margin", "nope"}}, `unknown scorer "nope"`},
		{"negative", SweepRequest{Command: "fig3", Shots: -1}, "must be positive"},
		{"claim axis", SweepRequest{Command: "claim-2q", Axis: "1q"}, "claim-2q fixes"},
		{"claim orders", SweepRequest{Command: "claim-2q", Orders: "1:1"}, "claim-2q fixes"},
		{"claim rates", SweepRequest{Command: "claim-2q", RatesPct: []float64{0.7}}, "claim-2q fixes"},
		{"unknown command", SweepRequest{Command: "fig9"}, `unknown command "fig9"`},
		{"empty command", SweepRequest{}, `unknown command ""`},
		{"scaling width", SweepRequest{Command: "scaling", Widths: []int{4, 1}}, "width 1 < 2"},
		{"scaling rate", SweepRequest{Command: "scaling", RatesPct: []float64{150}}, "rate 150% out of range"},
		{"scaling budget", SweepRequest{Command: "scaling", Budget: "quick"}, "not a budget"},
		{"scaling axis", SweepRequest{Command: "scaling", Axis: "2q"}, "scaling fixes"},
		{"routing route pass", SweepRequest{Command: "ablate-routing",
			Pipeline: compile.Config{Passes: []string{"decompose", "route", "fuse"}, Coupling: "linear:15"}}, "drop \"route\""},
		{"routing p2", SweepRequest{Command: "ablate-routing", P2: func() *float64 { p := 1.5; return &p }()}, "p2 1.5 out of range"},
		{"routing rates", SweepRequest{Command: "ablate-routing", RatesPct: []float64{1}}, "ablate-routing fixes"},
		{"addcut orders", SweepRequest{Command: "ablate-addcut", Orders: "1:1"}, "ablate-addcut fixes"},
	} {
		_, err := c.req.Spec()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want it to mention %q", c.name, err, c.want)
		}
	}
}

// TestSweepRequestDefaults: an empty request is the CLI's default
// sweep, and extra scorers are deduplicated with margin dropped.
func TestSweepRequestDefaults(t *testing.T) {
	got, err := SweepRequest{
		Command: "fig4", Seed: 20260704, Backend: "trajectory",
		Scorers: []string{"margin", " xeb", "xeb", ""},
	}.Spec()
	if err != nil {
		t.Fatal(err)
	}
	want := SweepSpec{
		Command: "fig4", Geometry: PaperMulGeometry(), Depths: MulDepths,
		Axes:    []ErrorAxis{Axis1Q, Axis2Q},
		Orders:  [][2]int{{1, 1}, {1, 2}, {2, 2}},
		Rates1Q: PaperRates1Q, Rates2Q: PaperRates2Q,
		Instances: Standard.Instances, Shots: Standard.Shots, Traj: Standard.Trajectories,
		Seed: 20260704, Backend: "trajectory",
		Pipeline: compile.Config{}.Hash(),
		Scorers:  []string{"xeb"},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("default spec:\n got %+v\nwant %+v", got, want)
	}
}

// TestClaim2QSpecMatchesHandBuiltLoop: the claim-2q spec's Panels yield
// exactly the points the command used to build by hand — one 2q panel
// per order 1:2 and 2:2 over AddDepths at 0.7% and 1.0% — with the
// rates bit for bit (0.7/100 would move every point seed) and so the
// same RowSeed and PointSeed.
func TestClaim2QSpecMatchesHandBuiltLoop(t *testing.T) {
	pipeline := compile.Config{Passes: []string{compile.PassDecompose, compile.PassFuse}}
	spec, err := SweepRequest{Command: "claim-2q", Budget: "quick", Seed: 777,
		Backend: "trajectory", Pipeline: pipeline}.Spec()
	if err != nil {
		t.Fatal(err)
	}
	rates := []float64{0.007, 0.010}
	var want []PointConfig
	for _, orders := range [][2]int{{1, 2}, {2, 2}} {
		pc := PanelConfig{
			Geometry: PaperAddGeometry(), Axis: Axis2Q,
			OrderX: orders[0], OrderY: orders[1],
			Rates: rates, Depths: AddDepths,
			Budget: Budget{Instances: Quick.Instances, Shots: Quick.Shots,
				Trajectories: Quick.Trajectories, Workers: 3},
			Seed: 777, Pipeline: pipeline,
		}
		for _, rate := range rates {
			for _, d := range AddDepths {
				want = append(want, pc.PointAt(rate, d))
			}
		}
	}
	panels, keys := spec.Panels(pipeline, 3)
	var got []PointConfig
	for _, pj := range panels {
		for _, rate := range pj.Config.Rates {
			for _, d := range pj.Config.Depths {
				got = append(got, pj.Config.PointAt(rate, d))
			}
		}
	}
	if len(got) != len(want) || len(keys) != len(want) {
		t.Fatalf("claim-2q enumerates %d points and %d keys, want %d", len(got), len(keys), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if math.Float64bits(g.Model.TwoQubit) != math.Float64bits(w.Model.TwoQubit) ||
			g.RowSeed != w.RowSeed || g.PointSeed != w.PointSeed || !reflect.DeepEqual(g, w) {
			t.Errorf("point %d = %+v, want %+v", i, g, w)
		}
	}
	if panels[0].Label != "claim-2q_2q_12" || panels[1].Label != "claim-2q_2q_22" {
		t.Errorf("panel labels %s, %s; want claim-2q_2q_12, claim-2q_2q_22", panels[0].Label, panels[1].Label)
	}
}

// TestCommandSpecsMatchHandBuiltLoops: the scaling, ablate-routing and
// ablate-addcut specs' Panels yield exactly the points those commands
// used to build in their own loops — geometry, depth, model, seeds,
// pipeline and cutoff — in the same order, one panel per width,
// topology and cutoff.
func TestCommandSpecsMatchHandBuiltLoops(t *testing.T) {
	pipeline := compile.Config{Passes: []string{compile.PassDecompose, compile.PassFuse}}
	type want struct {
		labels []string
		points []PointConfig
	}
	var scaling want
	for _, n := range []int{4, 5} {
		scaling.labels = append(scaling.labels, map[int]string{4: "scaling_n04", 5: "scaling_n05"}[n])
		depths := map[int][]int{4: {1, 2, 3, qft.Full}, 5: {1, 2, 3, 4, qft.Full}}[n]
		for _, p2 := range []float64{0.01, 0.03} {
			for _, d := range depths {
				scaling.points = append(scaling.points, PointConfig{
					Geometry: AddGeometry(n-1, n), Depth: d, Model: noise.PaperModel(0, p2),
					OrderX: 1, OrderY: 2, Instances: 3, Shots: 64, Trajectories: 2,
					RowSeed:   SplitSeed(77, uint64(n)),
					PointSeed: SplitSeed(78, uint64(n)<<16|uint64(d)<<8|uint64(p2*1000)),
					Pipeline:  pipeline, Scorers: []string{"xeb"},
				})
			}
		}
	}
	var routing want
	for _, tp := range []struct{ label, coupling string }{
		{"all-to-all", ""}, {"heavyhex27", "heavyhex27"}, {"grid3x5", "grid:3x5"}, {"linear15", "linear:15"},
	} {
		routing.labels = append(routing.labels, "ablate-routing_"+tp.label)
		pl := pipeline
		if tp.coupling != "" {
			pl = compile.Config{Passes: []string{compile.PassDecompose, compile.PassRoute, compile.PassFuse}, Coupling: tp.coupling}
		}
		routing.points = append(routing.points, PointConfig{
			Geometry: PaperAddGeometry(), Depth: 3, Model: noise.PaperModel(0.002, 0.007),
			OrderX: 1, OrderY: 2, Instances: 30, Shots: 2048, Trajectories: 24,
			RowSeed: 1001, PointSeed: 1002, Pipeline: pl,
		})
	}
	var addcut want
	for _, cut := range []int{1, 2, 3, 4, 6, 8} {
		addcut.labels = append(addcut.labels, fmt.Sprintf("ablate-addcut_cut%d", cut))
		for i, model := range []noise.Model{noise.Noiseless, noise.PaperModel(0, 0.01)} {
			addcut.points = append(addcut.points, PointConfig{
				Geometry: PaperAddGeometry(), Depth: qft.Full, AddCut: cut, Model: model,
				OrderX: 2, OrderY: 2, Instances: Quick.Instances, Shots: Quick.Shots, Trajectories: Quick.Trajectories,
				RowSeed: SplitSeed(777, 0x22), PointSeed: SplitSeed(777, uint64(cut)<<8|uint64(i)),
				Pipeline: pipeline,
			})
		}
	}
	p2 := 0.007
	for _, c := range []struct {
		req  SweepRequest
		want want
	}{
		{SweepRequest{Command: "scaling", Widths: []int{4, 5}, RatesPct: []float64{1, 3},
			Instances: 3, Shots: 64, Trajectories: 2, Scorers: []string{"xeb"}}, scaling},
		{SweepRequest{Command: "ablate-routing", P2: &p2}, routing},
		{SweepRequest{Command: "ablate-addcut", Budget: "quick", Seed: 777}, addcut},
	} {
		c.req.Pipeline = pipeline
		spec, err := c.req.Spec()
		if err != nil {
			t.Fatal(err)
		}
		panels, keys := spec.Panels(pipeline, 0)
		var labels []string
		var got []PointConfig
		for _, pj := range panels {
			labels = append(labels, pj.Label)
			for _, row := range pj.Grid {
				got = append(got, row...)
			}
		}
		if !reflect.DeepEqual(labels, c.want.labels) {
			t.Errorf("%s panels %v, want %v", spec.Command, labels, c.want.labels)
		}
		if len(got) != len(c.want.points) || len(keys) != len(got) {
			t.Fatalf("%s enumerates %d points and %d keys, want %d", spec.Command, len(got), len(keys), len(c.want.points))
		}
		for i, w := range c.want.points {
			if g := got[i]; math.Float64bits(g.Model.TwoQubit) != math.Float64bits(w.Model.TwoQubit) || !reflect.DeepEqual(g, w) {
				t.Errorf("%s point %d = %+v, want %+v", spec.Command, i, g, w)
			}
		}
	}
}
