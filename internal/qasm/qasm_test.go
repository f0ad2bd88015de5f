package qasm_test

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"qfarith/internal/arith"
	"qfarith/internal/circuit"
	"qfarith/internal/gate"
	"qfarith/internal/layout"
	"qfarith/internal/mat"
	"qfarith/internal/qasm"
	"qfarith/internal/qft"
	"qfarith/internal/testutil"
	"qfarith/internal/transpile"
)

func TestExportBasicStructure(t *testing.T) {
	c := circuit.New(3)
	c.Append(gate.H, 0, 0)
	c.Append(gate.CP, math.Pi/4, 0, 1)
	c.Append(gate.CCP, math.Pi/8, 0, 1, 2)
	out := qasm.Export(c)
	for _, want := range []string{
		"OPENQASM 2.0;",
		"qreg q[3];",
		"h q[0];",
		"cp(pi/4) q[0],q[1];",
		"ccp(pi/8) q[0],q[1],q[2];",
		"gate ccp(theta)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
	// No cch used: no cch definition emitted.
	if strings.Contains(out, "gate cch") {
		t.Error("spurious cch definition")
	}
}

func TestRoundTripPreservesOps(t *testing.T) {
	c := arith.NewQFA(3, 4, arith.Config{Depth: 2, AddCut: arith.FullAdd})
	parsed, err := qasm.ParseString(qasm.Export(c))
	if err != nil {
		t.Fatal(err)
	}
	if parsed.NumQubits != c.NumQubits || len(parsed.Ops) != len(c.Ops) {
		t.Fatalf("shape changed: %d/%d qubits, %d/%d ops",
			parsed.NumQubits, c.NumQubits, len(parsed.Ops), len(c.Ops))
	}
	for i := range c.Ops {
		a, b := c.Ops[i], parsed.Ops[i]
		if a.Kind != b.Kind || a.Qubits != b.Qubits || math.Abs(a.Theta-b.Theta) > 1e-12 {
			t.Fatalf("op %d: %v != %v", i, a, b)
		}
	}
}

func TestRoundTripUnitaryEquivalence(t *testing.T) {
	// Round-tripped QFM must implement the same unitary.
	c := arith.NewQFM(2, 2, arith.Config{Depth: qft.Full, AddCut: arith.FullAdd})
	parsed, err := qasm.ParseString(qasm.Export(c))
	if err != nil {
		t.Fatal(err)
	}
	want := testutil.CircuitUnitary(c, c.NumQubits)
	got := testutil.CircuitUnitary(parsed, parsed.NumQubits)
	if d := mat.MaxAbsDiff(got, want); d > 1e-9 {
		t.Errorf("round trip changed unitary by %g", d)
	}
}

func TestRoundTripAllKinds(t *testing.T) {
	c := circuit.New(3)
	th := 0.337
	c.Append(gate.I, 0, 0)
	c.Append(gate.X, 0, 0)
	c.Append(gate.Y, 0, 1)
	c.Append(gate.Z, 0, 2)
	c.Append(gate.H, 0, 0)
	c.Append(gate.S, 0, 1)
	c.Append(gate.Sdg, 0, 1)
	c.Append(gate.T, 0, 2)
	c.Append(gate.Tdg, 0, 2)
	c.Append(gate.SX, 0, 0)
	c.Append(gate.SXdg, 0, 0)
	c.Append(gate.RX, th, 1)
	c.Append(gate.RY, -th, 1)
	c.Append(gate.RZ, 2*th, 2)
	c.Append(gate.P, th/3, 0)
	c.Append(gate.CX, 0, 0, 1)
	c.Append(gate.CZ, 0, 1, 2)
	c.Append(gate.CP, th, 2, 0)
	c.Append(gate.CH, 0, 0, 2)
	c.Append(gate.CRY, th, 1, 0)
	c.Append(gate.SWAP, 0, 0, 2)
	c.Append(gate.CCX, 0, 0, 1, 2)
	c.Append(gate.CCP, th, 2, 1, 0)
	c.Append(gate.CCH, 0, 1, 2, 0)
	parsed, err := qasm.ParseString(qasm.Export(c))
	if err != nil {
		t.Fatal(err)
	}
	if len(parsed.Ops) != len(c.Ops) {
		t.Fatalf("op count %d != %d", len(parsed.Ops), len(c.Ops))
	}
	for i := range c.Ops {
		a, b := c.Ops[i], parsed.Ops[i]
		if a.Kind != b.Kind || a.Qubits != b.Qubits || math.Abs(a.Theta-b.Theta) > 1e-12 {
			t.Fatalf("op %d: %v != %v", i, a, b)
		}
	}
}

func TestParseQiskitAliases(t *testing.T) {
	src := `OPENQASM 2.0;
include "qelib1.inc";
qreg q[2];
u1(pi/2) q[0];
cu1(pi/8) q[0],q[1];
`
	c, err := qasm.ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	if c.Ops[0].Kind != gate.P || c.Ops[1].Kind != gate.CP {
		t.Errorf("aliases not mapped: %v", c.Ops)
	}
}

func TestParseAngleForms(t *testing.T) {
	cases := map[string]float64{
		"p(pi) q[0];":       math.Pi,
		"p(-pi) q[0];":      -math.Pi,
		"p(pi/2) q[0];":     math.Pi / 2,
		"p(3*pi/4) q[0];":   3 * math.Pi / 4,
		"p(-5*pi/16) q[0];": -5 * math.Pi / 16,
		"p(0.25) q[0];":     0.25,
		"p(2*pi) q[0];":     2 * math.Pi,
		"p(0) q[0];":        0,
	}
	for line, want := range cases {
		c, err := qasm.ParseString("qreg q[1];\n" + line)
		if err != nil {
			t.Errorf("%s: %v", line, err)
			continue
		}
		if got := c.Ops[0].Theta; math.Abs(got-want) > 1e-12 {
			t.Errorf("%s: theta %g, want %g", line, got, want)
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"h q[0];",                           // gate before qreg
		"qreg q[2];\nfrobnicate q[0];",      // unknown gate
		"qreg q[2];\ncx q[0];",              // wrong arity
		"qreg q[2];\nh r[0];",               // wrong register
		"qreg q[2];\nh q[5];",               // out of range
		"qreg q[2];\nqreg p[2];",            // double qreg
		"qreg q[2];\nmeasure q[0] -> c[0];", // unsupported
		"qreg q[2];\np() q[0];",             // missing angle
		"qreg q[2];\np(pi/x) q[0];",         // bad angle
		"",                                  // empty program
	}
	for _, src := range cases {
		if _, err := qasm.ParseString(src); err == nil {
			t.Errorf("expected error for %q", src)
		}
	}
}

func TestAngleRoundTripProperty(t *testing.T) {
	prop := func(milli int32) bool {
		theta := float64(milli) / 1000.0
		c := circuit.New(1)
		c.Append(gate.RZ, theta, 0)
		parsed, err := qasm.ParseString(qasm.Export(c))
		if err != nil {
			return false
		}
		return math.Abs(parsed.Ops[0].Theta-theta) < 1e-12
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestExportCommentsAndWhitespaceTolerated(t *testing.T) {
	src := `
// a comment
OPENQASM 2.0;
qreg q[2];  // trailing comment

  h q[0];
cx q[0],q[1];
`
	c, err := qasm.ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Ops) != 2 {
		t.Errorf("parsed %d ops, want 2", len(c.Ops))
	}
}

func TestExportWithMeasurement(t *testing.T) {
	c := circuit.New(3)
	c.Append(gate.H, 0, 0)
	out := qasm.ExportWithMeasurement(c, []int{1, 2})
	for _, want := range []string{"creg m[2];", "measure q[1] -> m[0];", "measure q[2] -> m[1];"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

// TestRoundTripRoutedCircuit exports a routed (coupling-constrained)
// circuit and parses it back: routing SWAPs are emitted as swap ops, so
// the op stream must survive exactly and the unitary must match.
func TestRoundTripRoutedCircuit(t *testing.T) {
	c := arith.NewQFA(2, 3, arith.Config{Depth: 2, AddCut: arith.FullAdd})
	native := transpile.Transpile(c).Circuit()
	routed := layout.Route(native, layout.Linear(c.NumQubits), nil)
	if routed.SwapCount == 0 {
		t.Fatal("expected the linear chain to force SWAP insertion")
	}
	parsed, err := qasm.ParseString(qasm.Export(routed.Circuit))
	if err != nil {
		t.Fatal(err)
	}
	if parsed.NumQubits != routed.Circuit.NumQubits || len(parsed.Ops) != len(routed.Circuit.Ops) {
		t.Fatalf("shape changed: %d/%d qubits, %d/%d ops",
			parsed.NumQubits, routed.Circuit.NumQubits, len(parsed.Ops), len(routed.Circuit.Ops))
	}
	for i := range routed.Circuit.Ops {
		a, b := routed.Circuit.Ops[i], parsed.Ops[i]
		if a.Kind != b.Kind || a.Qubits != b.Qubits || math.Abs(a.Theta-b.Theta) > 1e-12 {
			t.Fatalf("op %d: %v != %v", i, a, b)
		}
	}
	want := testutil.CircuitUnitary(routed.Circuit, routed.Circuit.NumQubits)
	got := testutil.CircuitUnitary(parsed, parsed.NumQubits)
	if d := mat.MaxAbsDiff(got, want); d > 1e-9 {
		t.Errorf("round trip changed routed unitary by %g", d)
	}
}

// TestRoundTripExplicitSwap: a hand-written swap gate must also survive
// a round trip.
func TestRoundTripExplicitSwap(t *testing.T) {
	c := circuit.New(3)
	c.Append(gate.H, 0, 0)
	c.Append(gate.SWAP, 0, 0, 2)
	c.Append(gate.CP, math.Pi/4, 1, 2)
	parsed, err := qasm.ParseString(qasm.Export(c))
	if err != nil {
		t.Fatal(err)
	}
	if len(parsed.Ops) != 3 || parsed.Ops[1].Kind != gate.SWAP || parsed.Ops[1].Qubits != c.Ops[1].Qubits {
		t.Fatalf("swap did not round-trip: %v", parsed.Ops)
	}
}
