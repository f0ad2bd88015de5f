package layout_test

import (
	"math"
	"testing"

	"qfarith/internal/arith"
	"qfarith/internal/circuit"
	"qfarith/internal/gate"
	"qfarith/internal/layout"
	"qfarith/internal/sim"
	"qfarith/internal/testutil"
	"qfarith/internal/transpile"
)

func TestTopologyConstruction(t *testing.T) {
	lin := layout.Linear(5)
	if !lin.Connected(0, 1) || !lin.Connected(3, 4) || lin.Connected(0, 2) {
		t.Error("linear adjacency wrong")
	}
	ring := layout.Ring(5)
	if !ring.Connected(4, 0) {
		t.Error("ring must close the loop")
	}
	grid := layout.Grid(2, 3)
	if !grid.Connected(0, 3) || !grid.Connected(1, 2) || grid.Connected(0, 4) {
		t.Error("grid adjacency wrong")
	}
	hh := layout.HeavyHexFalcon27()
	if hh.NumQubits != 27 || !hh.IsConnected() {
		t.Error("heavy-hex map malformed")
	}
	// Heavy hex has max degree 3.
	for q := 0; q < 27; q++ {
		deg := 0
		for u := 0; u < 27; u++ {
			if hh.Connected(q, u) {
				deg++
			}
		}
		if deg > 3 {
			t.Errorf("heavy-hex qubit %d has degree %d", q, deg)
		}
	}
}

func TestDistances(t *testing.T) {
	lin := layout.Linear(6)
	d := lin.Distances()
	if d[0][5] != 5 || d[2][4] != 2 || d[3][3] != 0 {
		t.Errorf("linear distances wrong: %v", d)
	}
	ring := layout.Ring(6)
	if rd := ring.Distances(); rd[0][5] != 1 || rd[0][3] != 3 {
		t.Errorf("ring distances wrong: %v", rd)
	}
}

func TestRouteAdjacentGatesUnchanged(t *testing.T) {
	c := circuit.New(3)
	c.Append(gate.H, 0, 0)
	c.Append(gate.CX, 0, 0, 1)
	c.Append(gate.CX, 0, 1, 2)
	r := layout.Route(c, layout.Linear(3), nil)
	if r.SwapCount != 0 {
		t.Errorf("adjacent-only circuit needed %d swaps", r.SwapCount)
	}
	if len(r.Circuit.Ops) != 3 {
		t.Errorf("routed ops %d, want 3", len(r.Circuit.Ops))
	}
}

func TestRouteInsertsSwapsForDistantPairs(t *testing.T) {
	c := circuit.New(4)
	c.Append(gate.CX, 0, 0, 3)
	r := layout.Route(c, layout.Linear(4), nil)
	if r.SwapCount != 2 {
		t.Errorf("distance-3 CX should need 2 swaps, got %d", r.SwapCount)
	}
	// Every emitted 2q gate must lie on a coupling edge, and each swap
	// is one SWAP op.
	cm := layout.Linear(4)
	swaps := 0
	for _, op := range r.Circuit.Ops {
		if op.Kind.Arity() == 2 && !cm.Connected(op.Qubits[0], op.Qubits[1]) {
			t.Fatalf("routed gate off-edge: %v", op)
		}
		if op.Kind == gate.SWAP {
			swaps++
		}
	}
	if swaps != r.SwapCount || len(r.Circuit.Ops) != swaps+1 {
		t.Errorf("routed ops %v: want %d SWAP ops and the CX", r.Circuit.Ops, r.SwapCount)
	}
}

// TestRoutedCircuitPreservesSemantics simulates a routed QFA on the
// linear topology and checks the sum appears at the final layout's
// positions.
func TestRoutedCircuitPreservesSemantics(t *testing.T) {
	a, w := 2, 3
	c := arith.NewQFA(a, w, arith.DefaultConfig())
	native := transpile.Transpile(c).Circuit()
	cm := layout.Linear(5)
	r := layout.Route(native, cm, nil)

	for trial := 0; trial < 8; trial++ {
		rng := testutil.NewRand(uint64(trial) + 100)
		x := rng.IntN(1 << a)
		y := rng.IntN(1 << w)
		// Prepare the physical state per the initial layout (identity).
		st := sim.NewState(5)
		st.SetBasis(x | y<<a)
		st.ApplyCircuit(r.Circuit)
		// Read logical qubits at their final physical positions.
		out := 0
		for l := 0; l < 5; l++ {
			probs := st.RegisterProbs([]int{r.FinalLayout[l]})
			if probs[1] > 0.5 {
				out |= 1 << uint(l)
			} else if probs[1] > 1e-9 && probs[1] < 1-1e-9 {
				t.Fatalf("qubit %d not in a basis state (p1=%g)", l, probs[1])
			}
		}
		gotX := out & (1<<a - 1)
		gotY := out >> a
		if gotX != x || gotY != (x+y)&(1<<w-1) {
			t.Fatalf("routed QFA: %d+%d gave (x=%d, y=%d)", x, y, gotX, gotY)
		}
	}
}

func TestRouteWithExplicitInitialLayout(t *testing.T) {
	c := circuit.New(2)
	c.Append(gate.CX, 0, 0, 1)
	// Place logical 0 at physical 2, logical 1 at physical 0 on a chain:
	// distance 2 → one swap.
	r := layout.Route(c, layout.Linear(3), []int{2, 0})
	if r.SwapCount != 1 {
		t.Errorf("expected 1 swap, got %d", r.SwapCount)
	}
	if r.InitialLayout[0] != 2 || r.InitialLayout[1] != 0 {
		t.Errorf("initial layout mangled: %v", r.InitialLayout)
	}
}

func TestRouteValidation(t *testing.T) {
	assertPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	c := circuit.New(3)
	c.Append(gate.CCP, 1, 0, 1, 2)
	assertPanic("3q gate", func() { layout.Route(c, layout.Linear(3), nil) })
	c2 := circuit.New(4)
	c2.Append(gate.CX, 0, 0, 1)
	assertPanic("too small device", func() { layout.Route(c2, layout.Linear(2), nil) })
	assertPanic("bad layout", func() { layout.Route(c2, layout.Linear(4), []int{0, 0, 1, 2}) })
	assertPanic("disconnected", func() {
		layout.Route(c2, layout.NewCouplingMap(4, [][2]int{{0, 1}, {2, 3}}), nil)
	})
}

// TestQFARoutingOverheadScales quantifies what the paper idealizes away:
// QFT arithmetic's all-to-all rotations are expensive on a chain.
func TestQFARoutingOverheadScales(t *testing.T) {
	c := arith.NewQFA(7, 8, arith.DefaultConfig())
	native := transpile.Transpile(c).Circuit()
	o := layout.RoutingOverhead(native, layout.Linear(15))
	if o.BaseCX != 182 {
		t.Fatalf("base CX %d, want 182 (Table I)", o.BaseCX)
	}
	if o.CXFactor < 1.5 {
		t.Errorf("linear-chain routing factor %.2f suspiciously low", o.CXFactor)
	}
	if o.RoutedCX != o.BaseCX+3*o.Swaps {
		t.Errorf("accounting broken: %d != %d + 3*%d", o.RoutedCX, o.BaseCX, o.Swaps)
	}
	// A grid gets strictly cheaper than the chain.
	og := layout.RoutingOverhead(native, layout.Grid(3, 5))
	if og.RoutedCX >= o.RoutedCX {
		t.Errorf("grid (%d CX) should beat chain (%d CX)", og.RoutedCX, o.RoutedCX)
	}
	if math.IsNaN(o.CXFactor) {
		t.Error("CXFactor NaN")
	}
}
