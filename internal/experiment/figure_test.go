package experiment

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"qfarith/internal/compile"
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
	// A non-figure command validates the same fields but leaves the
	// geometry to its caller.
	other, err := SweepRequest{Command: "claim-2q"}.Spec()
	if err != nil || other.Depths != nil || other.Geometry.TotalQubits != 0 {
		t.Errorf("claim-2q spec = %+v, %v; want no geometry", other, err)
	}
}
