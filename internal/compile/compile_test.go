package compile

import (
	"math"
	"strings"
	"testing"

	"qfarith/internal/arith"
	"qfarith/internal/circuit"
	"qfarith/internal/gate"
	"qfarith/internal/mat"
	"qfarith/internal/qft"
	"qfarith/internal/testutil"
	"qfarith/internal/transpile"
)

func mustCompile(t *testing.T, cfg Config, c *circuit.Circuit) *Artifact {
	t.Helper()
	p, err := New(cfg)
	if err != nil {
		t.Fatalf("New(%+v): %v", cfg, err)
	}
	art, err := p.Compile(c)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	return art
}

// TestDefaultPipelineMatchesTranspile pins the byte-identity guarantee:
// the default pipeline's Result must be indistinguishable from a direct
// transpile.Transpile call — same native ops, same source ops, same
// spans — so every pre-pipeline seed-stable output is preserved.
func TestDefaultPipelineMatchesTranspile(t *testing.T) {
	c := arith.NewQFA(3, 4, arith.Config{Depth: 2, AddCut: arith.FullAdd})
	want := transpile.Transpile(c)
	art := mustCompile(t, Config{}, c)

	if len(art.Result.Ops) != len(want.Ops) {
		t.Fatalf("native op count %d, want %d", len(art.Result.Ops), len(want.Ops))
	}
	for i := range want.Ops {
		if art.Result.Ops[i] != want.Ops[i] {
			t.Fatalf("native op %d: %v != %v", i, art.Result.Ops[i], want.Ops[i])
		}
	}
	if len(art.Result.Source) != len(c.Ops) {
		t.Fatalf("source op count %d, want %d (default pipeline must keep the logical source)", len(art.Result.Source), len(c.Ops))
	}
	for i := range c.Ops {
		if art.Result.Source[i] != c.Ops[i] {
			t.Fatalf("source op %d: %v != %v", i, art.Result.Source[i], c.Ops[i])
		}
	}
	if len(art.Result.Spans) != len(want.Spans) {
		t.Fatalf("span count %d, want %d", len(art.Result.Spans), len(want.Spans))
	}
	for i := range want.Spans {
		if art.Result.Spans[i] != want.Spans[i] {
			t.Fatalf("span %d: %v != %v", i, art.Result.Spans[i], want.Spans[i])
		}
	}

	if len(art.Stats) != 2 || art.Stats[0].Pass != PassDecompose || art.Stats[1].Pass != PassFuse {
		t.Fatalf("default pipeline stats = %+v, want [decompose, fuse]", art.Stats)
	}
	if art.Stats[1].Segments <= 0 {
		t.Error("fuse pass reported no segments")
	}
	if art.SourceDepth != c.Depth() {
		t.Errorf("SourceDepth %d, want %d", art.SourceDepth, c.Depth())
	}
	if wantND := want.Circuit().Depth(); art.NativeDepth != wantND {
		t.Errorf("NativeDepth %d, want %d", art.NativeDepth, wantND)
	}
	if art.NativeDepth < art.SourceDepth {
		t.Errorf("NativeDepth %d < SourceDepth %d — decomposition only adds gates", art.NativeDepth, art.SourceDepth)
	}
}

func TestConfigHash(t *testing.T) {
	def := Config{}
	explicit := Config{Passes: []string{PassDecompose, PassFuse}}
	if def.Hash() != explicit.Hash() {
		t.Error("explicit default pass list hashes differently from the zero config")
	}
	if !def.IsDefault() || !explicit.IsDefault() {
		t.Error("default configs not recognized as default")
	}
	withOpt := Config{Passes: []string{PassDecompose, PassCancelInverses, PassFuse}}
	if withOpt.Hash() == def.Hash() {
		t.Error("adding a pass did not change the hash")
	}
	if withOpt.IsDefault() {
		t.Error("optimizing config claims to be default")
	}
	routed := Config{Passes: []string{PassDecompose, PassRoute, PassFuse}, Coupling: "linear:5"}
	routed2 := Config{Passes: []string{PassDecompose, PassRoute, PassFuse}, Coupling: "linear:6"}
	if routed.Hash() == routed2.Hash() {
		t.Error("coupling map not folded into the hash")
	}
	debug := Config{Debug: true}
	if debug.Hash() != def.Hash() {
		t.Error("Debug changed the hash; it must not (verification never changes output)")
	}
}

func TestParsePasses(t *testing.T) {
	got := ParsePasses(" decompose, fuse ,")
	if len(got) != 2 || got[0] != PassDecompose || got[1] != PassFuse {
		t.Fatalf("ParsePasses = %v", got)
	}
}

func TestValidationErrors(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		want string
	}{
		{"no-decompose", Config{Passes: []string{PassFuse}}, "lacks decompose"},
		{"double-decompose", Config{Passes: []string{PassDecompose, PassDecompose, PassFuse}}, "twice"},
		{"fuse-not-last", Config{Passes: []string{PassDecompose, PassFuse, PassCancelInverses}}, "terminal"},
		{"route-before-decompose", Config{Passes: []string{PassRoute, PassDecompose}, Coupling: "linear:5"}, "route requires decompose"},
		{"route-no-coupling", Config{Passes: []string{PassDecompose, PassRoute}}, "Coupling"},
		{"unknown-pass", Config{Passes: []string{PassDecompose, "magic"}}, "unknown pass"},
		{"bad-coupling", Config{Passes: []string{PassDecompose, PassRoute}, Coupling: "torus:3"}, "unknown coupling"},
		{"cancel-after-route", Config{Passes: []string{PassDecompose, PassRoute, PassCancelInverses, PassFuse}, Coupling: "linear:5"}, "only fuse may follow route"},
		{"fold-after-route", Config{Passes: []string{PassDecompose, PassRoute, PassFoldAngles}, Coupling: "linear:5"}, "only fuse may follow route"},
		{"prune-after-route", Config{Passes: []string{PassDecompose, PassRoute, PassPruneZeroAngle, PassFuse}, Coupling: "linear:5"}, "only fuse may follow route"},
		{"sink-after-route", Config{Passes: []string{PassDecompose, PassRoute, PassSinkDiagonals}, Coupling: "linear:5"}, "only fuse may follow route"},
		{"decompose-after-route", Config{Passes: []string{PassDecompose, PassRoute, PassDecompose}, Coupling: "linear:5"}, "only fuse may follow route"},
	}
	for _, cse := range cases {
		_, err := New(cse.cfg)
		if err == nil {
			t.Errorf("%s: New accepted invalid config %+v", cse.name, cse.cfg)
			continue
		}
		if !strings.Contains(err.Error(), cse.want) {
			t.Errorf("%s: error %q does not mention %q", cse.name, err, cse.want)
		}
	}
}

func TestResolveCoupling(t *testing.T) {
	for _, name := range []string{"linear:5", "grid:3x5", "heavyhex27"} {
		if _, err := ResolveCoupling(name); err != nil {
			t.Errorf("ResolveCoupling(%q): %v", name, err)
		}
	}
	for _, name := range []string{"linear:1", "grid:0x4", "grid:bad", ""} {
		if _, err := ResolveCoupling(name); err == nil {
			t.Errorf("ResolveCoupling(%q) accepted", name)
		}
	}
}

// checkPipelineEquivalent compiles c through cfg and asserts the final
// native circuit implements the source unitary (up to global phase).
func checkPipelineEquivalent(t *testing.T, cfg Config, c *circuit.Circuit, n int, label string) *Artifact {
	t.Helper()
	art := mustCompile(t, cfg, c)
	want := testutil.CircuitUnitary(c, n)
	got := testutil.CircuitUnitary(art.Result.Circuit(), n)
	if !mat.EqualUpToGlobalPhase(got, want, 1e-9) {
		t.Fatalf("%s: compiled unitary differs from source", label)
	}
	return art
}

var trioConfig = Config{Passes: []string{
	PassDecompose, PassCancelInverses, PassFoldAngles, PassPruneZeroAngle, PassFuse,
}}

// TestPeepholeCancelsTrivialPatterns re-homes the old transpile.Optimize
// coverage: adjacent inverse pairs and zero rotations vanish.
func TestPeepholeCancelsTrivialPatterns(t *testing.T) {
	c := circuit.New(2)
	c.Append(gate.X, 0, 0)
	c.Append(gate.X, 0, 0) // cancels
	c.Append(gate.CX, 0, 0, 1)
	c.Append(gate.CX, 0, 0, 1) // cancels
	c.Append(gate.RZ, math.Pi/4, 1)
	c.Append(gate.RZ, -math.Pi/4, 1) // folds to 0, then pruned
	c.Append(gate.I, 0, 0)           // dropped
	c.Append(gate.H, 0, 0)           // survives (as its native expansion)

	art := checkPipelineEquivalent(t, trioConfig, c, 2, "trivial-patterns")
	if got := len(art.Result.Ops); got != 3 {
		t.Errorf("optimized to %d native ops, want 3 (H = rz·sx·rz):\n%s", got, art.Result.Circuit())
	}
}

// TestPeepholeRespectsInterveningGates: a pattern split by a gate on a
// shared wire must never cancel.
func TestPeepholeRespectsInterveningGates(t *testing.T) {
	c := circuit.New(2)
	c.Append(gate.X, 0, 0)
	c.Append(gate.CX, 0, 0, 1) // touches qubit 0: blocks the X pair
	c.Append(gate.X, 0, 0)

	art := checkPipelineEquivalent(t, trioConfig, c, 2, "intervening")
	if got := len(art.Result.Ops); got != 3 {
		t.Errorf("optimizer dropped gates across an intervening CX: %d ops, want 3", got)
	}
}

// TestOptimizedQFAStillCorrect: the full trio on a real arithmetic
// circuit preserves the unitary while strictly shrinking the gate list.
func TestOptimizedQFAStillCorrect(t *testing.T) {
	c := arith.NewQFA(2, 3, arith.Config{Depth: 2, AddCut: arith.FullAdd})
	art := checkPipelineEquivalent(t, trioConfig, c, 5, "qfa")
	plain := transpile.Transpile(c)
	if len(art.Result.Ops) >= len(plain.Ops) {
		t.Errorf("trio did not shrink the QFA: %d >= %d native ops", len(art.Result.Ops), len(plain.Ops))
	}
}

// TestSinkDiagonalsEnlargesFusedSegments: commuting diagonals left past
// gates that share only control wires must reduce the fused-plan segment
// count on circuits with controlled arithmetic (the order-finding
// capstone). Bare QFA/QFM are structurally immune — every H in a QFT
// ladder is pinned between CP gates sharing its qubit on both sides, so
// no commutation-only pass can change their segment alternation — and
// the pass must leave their counts exactly unchanged.
func TestSinkDiagonalsEnlargesFusedSegments(t *testing.T) {
	sink := Config{Passes: []string{PassSinkDiagonals, PassDecompose, PassFuse}}
	segs := func(cfg Config, c *circuit.Circuit) int {
		art := mustCompile(t, cfg, c)
		return art.Stats[len(art.Stats)-1].Segments
	}

	of, _ := arith.NewOrderFinding(7, 15, 3, arith.DefaultConfig())
	if d, s := segs(Config{}, of), segs(sink, of); s >= d {
		t.Errorf("order-finding: sink-diagonals did not reduce segments: %d -> %d", d, s)
	}

	// Minimal shape of the win: a diagonal run split by a CX that shares
	// only its control wire with the trailing diagonals. The trailing run
	// hops left over the CX and the two runs merge.
	c := circuit.New(3)
	c.Append(gate.RZ, math.Pi/3, 1)
	c.Append(gate.CP, math.Pi/5, 0, 1)
	c.Append(gate.CX, 0, 0, 2)
	c.Append(gate.CP, math.Pi/7, 0, 1)
	c.Append(gate.RZ, math.Pi/9, 0)
	if d, s := segs(Config{}, c), segs(sink, c); d != 3 || s != 2 {
		t.Errorf("engineered: want 3 -> 2 segments, got %d -> %d", d, s)
	}

	for _, tc := range []struct {
		label string
		c     *circuit.Circuit
	}{
		{"qfa-7-8-d3", arith.NewQFA(7, 8, arith.Config{Depth: 3, AddCut: arith.FullAdd})},
		{"qfm-4-4-d2", arith.NewQFM(4, 4, arith.Config{Depth: 2, AddCut: arith.FullAdd})},
	} {
		if d, s := segs(Config{}, tc.c), segs(sink, tc.c); s != d {
			t.Errorf("%s: expected structural no-op on a bare QFT ladder, got %d -> %d", tc.label, d, s)
		}
	}
}

// TestSinkDiagonalsPreservesUnitary on a circuit engineered so a
// diagonal must hop over a disjoint non-diagonal gate but stop at a
// blocker sharing a qubit.
func TestSinkDiagonalsPreservesUnitary(t *testing.T) {
	c := circuit.New(3)
	c.Append(gate.RZ, math.Pi/3, 0)
	c.Append(gate.H, 0, 1)             // disjoint from q2: hoppable
	c.Append(gate.CP, math.Pi/5, 0, 2) // diagonal: should join the RZ run
	c.Append(gate.SX, 0, 2)            // blocker for anything on q2
	c.Append(gate.RZ, math.Pi/7, 2)    // must stay behind the SX

	pass := sinkDiagonalsPass{}
	out, _, err := pass.Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if out.Ops[1].Kind != gate.CP {
		t.Errorf("CP did not hop over the disjoint H: %v", out.Ops)
	}
	if out.Ops[4].Kind != gate.RZ || out.Ops[3].Kind != gate.SX {
		t.Errorf("RZ crossed a blocking SX: %v", out.Ops)
	}
	want := testutil.CircuitUnitary(c, 3)
	got := testutil.CircuitUnitary(out, 3)
	if !mat.EqualUpToGlobalPhase(got, want, 1e-12) {
		t.Error("sink-diagonals changed the unitary")
	}

	// Control-wire hops: a diagonal commutes with a controlled gate when
	// every shared qubit is one of its controls — but not when it touches
	// a target.
	c2 := circuit.New(3)
	c2.Append(gate.CP, math.Pi/3, 0, 1)
	c2.Append(gate.CCX, 0, 0, 1, 2)     // controls q0,q1; target q2
	c2.Append(gate.CP, math.Pi/5, 1, 0) // shares only controls: hops
	c2.Append(gate.CX, 0, 0, 2)
	c2.Append(gate.RZ, math.Pi/7, 2) // q2 is the CX target: pinned
	out2, _, err := pass.Run(c2)
	if err != nil {
		t.Fatal(err)
	}
	if out2.Ops[1].Kind != gate.CP || out2.Ops[2].Kind != gate.CCX {
		t.Errorf("CP did not hop over the CCX sharing only controls: %v", out2.Ops)
	}
	if out2.Ops[4].Kind != gate.RZ || out2.Ops[3].Kind != gate.CX {
		t.Errorf("RZ crossed the CX acting on its wire as target: %v", out2.Ops)
	}
	want2 := testutil.CircuitUnitary(c2, 3)
	got2 := testutil.CircuitUnitary(out2, 3)
	if !mat.EqualUpToGlobalPhase(got2, want2, 1e-12) {
		t.Error("control-wire hop changed the unitary")
	}
}

// TestRoutePass compiles onto a linear chain with debug verification:
// the layout-aware equivalence check must pass and the artifact must
// carry the routing bookkeeping.
func TestRoutePass(t *testing.T) {
	c := arith.NewQFA(2, 3, arith.Config{Depth: 2, AddCut: arith.FullAdd})
	cfg := Config{
		Passes:   []string{PassDecompose, PassRoute, PassFuse},
		Coupling: "linear:5",
		Debug:    true,
	}
	art := mustCompile(t, cfg, c)
	if art.Routed == nil {
		t.Fatal("route pass left no layout bookkeeping")
	}
	var routeStats *Stats
	for i := range art.Stats {
		if art.Stats[i].Pass == PassRoute {
			routeStats = &art.Stats[i]
		}
	}
	if routeStats == nil {
		t.Fatal("no route stats recorded")
	}
	if routeStats.Swaps != art.Routed.SwapCount {
		t.Errorf("stats swaps %d != routed swaps %d", routeStats.Swaps, art.Routed.SwapCount)
	}
	if art.Routed.SwapCount == 0 {
		t.Error("routing a QFA onto a linear chain inserted no SWAPs — test circuit too easy")
	}
	for _, op := range art.Result.Ops {
		if !gate.IsNative(op.Kind) {
			t.Fatalf("non-native gate %s survived the routed pipeline", op.Kind)
		}
	}
}

// TestDebugCatchesBrokenCircuit drives verifyPass with an "after"
// circuit that implements a different unitary and checks it objects.
func TestDebugCatchesBrokenCircuit(t *testing.T) {
	before := circuit.New(2)
	before.Append(gate.H, 0, 0)
	before.Append(gate.CX, 0, 0, 1)
	broken := before.Clone()
	broken.Append(gate.X, 0, 1) // silently appended "optimization"
	if err := verifyPass("bogus", before, broken, nil); err == nil {
		t.Fatal("verifyPass accepted a circuit with a different unitary")
	}
	// Sanity: the identical circuit must verify clean.
	if err := verifyPass("identity", before, before.Clone(), nil); err != nil {
		t.Fatalf("verifyPass rejected an identical circuit: %v", err)
	}
}

// TestDebugSkipsWideCircuits: registers above DebugMaxQubits must pass
// through unchecked rather than allocate a 2^width statevector.
func TestDebugSkipsWideCircuits(t *testing.T) {
	wide := circuit.New(DebugMaxQubits + 1)
	wide.Append(gate.H, 0, 0)
	brokenWide := wide.Clone()
	brokenWide.Append(gate.X, 0, 0)
	if err := verifyPass("wide", wide, brokenWide, nil); err != nil {
		t.Fatalf("verifyPass simulated a %d-qubit register: %v", DebugMaxQubits+1, err)
	}
}

// TestEveryPassPreservesSemantics is the satellite property test: on
// randomized small QFA/QFM circuits, every pass — alone and all
// chained — keeps the statevector equal up to global phase within
// DebugTol. Compiling with Debug:true runs the check after each pass,
// so a single failing pass is pinpointed by the returned error.
func TestEveryPassPreservesSemantics(t *testing.T) {
	singles := [][]string{
		{PassSinkDiagonals, PassDecompose, PassFuse},
		{PassDecompose, PassCancelInverses, PassFuse},
		{PassDecompose, PassFoldAngles, PassFuse},
		{PassDecompose, PassPruneZeroAngle, PassFuse},
		{PassSinkDiagonals, PassDecompose, PassCancelInverses, PassFoldAngles, PassPruneZeroAngle, PassFuse},
	}
	rng := testutil.NewRand(0xc0ffee)
	for trial := 0; trial < 6; trial++ {
		// Randomized geometry and AQFT depth, small enough to simulate.
		var (
			c     *circuit.Circuit
			label string
		)
		if trial%2 == 0 {
			x := 2 + rng.IntN(2) // 2..3
			y := x + 1
			d := 1 + rng.IntN(y)
			if rng.IntN(2) == 0 {
				d = qft.Full
			}
			c = arith.NewQFA(x, y, arith.Config{Depth: d, AddCut: arith.FullAdd})
			label = "qfa"
		} else {
			d := 1 + rng.IntN(2)
			c = arith.NewQFM(2, 2, arith.Config{Depth: d, AddCut: arith.FullAdd})
			label = "qfm"
		}
		for _, passes := range singles {
			p, err := New(Config{Passes: passes, Debug: true})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := p.Compile(c); err != nil {
				t.Errorf("trial %d (%s, %d qubits) passes %v: %v", trial, label, c.NumQubits, passes, err)
			}
		}
	}
}

// TestKnownPassesAllConstruct: every advertised pass name must validate
// inside a pipeline (with whatever structural context it needs).
func TestKnownPassesAllConstruct(t *testing.T) {
	for _, name := range KnownPasses() {
		cfg := Config{Passes: []string{PassDecompose, PassFuse}}
		switch name {
		case PassDecompose, PassFuse:
			// already present
		case PassSinkDiagonals:
			cfg.Passes = []string{name, PassDecompose, PassFuse}
		case PassRoute:
			cfg.Passes = []string{PassDecompose, name, PassFuse}
			cfg.Coupling = "linear:8"
		default:
			cfg.Passes = []string{PassDecompose, name, PassFuse}
		}
		if _, err := New(cfg); err != nil {
			t.Errorf("known pass %q does not validate: %v", name, err)
		}
	}
}
