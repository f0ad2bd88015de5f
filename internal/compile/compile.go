// Package compile unifies circuit compilation into a configurable pass
// pipeline. The paper's sweeps hinge on faithful native-gate counts and
// depths under the IBM basis {id, x, rz, sx, cx}; historically the four
// compilation stages — basis decomposition, peephole optimization, SWAP
// routing, and trajectory fusion — were wired ad-hoc into the backend
// cache, the experiment runner, the façade, and the CLI. This package
// composes them (plus new optimizations) as named passes behind one
// entry point, with per-pass statistics, a deterministic configuration
// hash for caching and resume verification, and an optional debug mode
// that checks statevector equivalence after every pass.
//
// A Pipeline always contains the decompose pass (the logical→native
// boundary, from transpile.Transpile). Passes before it transform the
// logical (source) circuit — the op stream the trajectory engine
// executes on error-free stretches — so source-level passes like
// sink-diagonals directly reshape the fused execution plan while the
// native span bookkeeping stays exact. Passes after decompose transform
// the native circuit; once one changes it, the source/span bookkeeping
// cannot survive, so the pipeline re-wraps the final native circuit as
// its own source.
// The terminal fuse pass materializes the fused execution plan and
// reports its segment statistics.
package compile

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"time"

	"qfarith/internal/circuit"
	"qfarith/internal/gate"
	"qfarith/internal/layout"
	"qfarith/internal/transpile"
)

// Stats records what one pass did to the circuit: op, 1q-gate and
// 2q-gate totals before and after, the depth delta, and wall time.
type Stats struct {
	Pass        string        `json:"pass"`
	OpsBefore   int           `json:"ops_before"`
	OpsAfter    int           `json:"ops_after"`
	OneQBefore  int           `json:"one_q_before"`
	OneQAfter   int           `json:"one_q_after"`
	TwoQBefore  int           `json:"two_q_before"`
	TwoQAfter   int           `json:"two_q_after"`
	DepthBefore int           `json:"depth_before"`
	DepthAfter  int           `json:"depth_after"`
	Wall        time.Duration `json:"wall_ns"`
	// Segments is the fused-plan segment count (fuse pass only).
	Segments int `json:"segments,omitempty"`
	// Swaps is the number of SWAPs inserted (route pass only).
	Swaps int `json:"swaps,omitempty"`
}

// Pass is one compilation stage: a named circuit transformation.
// Implementations must not mutate the input circuit and must preserve
// the implemented unitary up to global phase (debug mode verifies
// this). Run fills the before/after fields of Stats via the Measure
// helpers; the pipeline stamps wall time.
type Pass interface {
	Name() string
	Run(c *circuit.Circuit) (*circuit.Circuit, Stats, error)
}

// Canonical pass names.
const (
	PassSinkDiagonals  = "sink-diagonals"
	PassDecompose      = "decompose"
	PassCancelInverses = "cancel-inverses"
	PassFoldAngles     = "fold-angles"
	PassPruneZeroAngle = "prune-zero-angle"
	PassRoute          = "route"
	PassFuse           = "fuse"
)

// DefaultPasses is the default pipeline: pure basis decomposition
// followed by trajectory fusion — the exact compilation the paper's
// figures (and this repo's committed CSVs) were produced with. Adding
// optimization passes changes native gate order and therefore the
// positions at which trajectory noise is injected, so they are opt-in.
var DefaultPasses = []string{PassDecompose, PassFuse}

// DefaultString renders DefaultPasses as a -passes flag value.
func DefaultString() string { return strings.Join(DefaultPasses, ",") }

// Config selects and parameterizes a pipeline. The zero value is the
// default pipeline.
type Config struct {
	// Passes is the ordered pass list; empty means DefaultPasses.
	Passes []string `json:"passes,omitempty"`
	// Coupling names the coupling map the route pass targets:
	// "linear:N", "grid:RxC", or "heavyhex27". Required iff the pass
	// list contains route.
	Coupling string `json:"coupling,omitempty"`
	// Debug verifies statevector equivalence (≤ DebugTol, up to global
	// phase) after every pass, on circuits of at most DebugMaxQubits
	// qubits. It never changes the compiled output, so it is excluded
	// from the config hash.
	Debug bool `json:"debug,omitempty"`
}

// PassList returns the effective pass order (DefaultPasses when unset).
func (c Config) PassList() []string {
	if len(c.Passes) == 0 {
		return DefaultPasses
	}
	return c.Passes
}

// IsDefault reports whether the config compiles identically to the
// default pipeline.
func (c Config) IsDefault() bool { return c.Hash() == (Config{}).Hash() }

// Hash returns the deterministic identity of the compilation this
// config performs: equal hashes guarantee identical compiled output for
// identical input circuits. Backend transpile caches key on it and
// durable-run manifests fold it into their config hash so -resume
// refuses a run whose pass configuration changed. Debug is excluded —
// it only verifies, never transforms.
func (c Config) Hash() string {
	canon := "passes=" + strings.Join(c.PassList(), ",") + ";coupling=" + c.Coupling
	sum := sha256.Sum256([]byte(canon))
	return hex.EncodeToString(sum[:8])
}

// ParsePasses splits a comma-separated -passes flag value.
func ParsePasses(s string) []string {
	var out []string
	for _, tok := range strings.Split(s, ",") {
		if tok = strings.TrimSpace(tok); tok != "" {
			out = append(out, tok)
		}
	}
	return out
}

// Artifact is a pipeline's compiled output.
type Artifact struct {
	// Result is the executable circuit: native ops plus the source-op
	// and span bookkeeping the noise engine injects errors through.
	// When no pass after decompose changed the native ops, Source holds
	// the logical circuit and Spans are exact; otherwise the native
	// circuit is its own source (identity spans).
	Result *transpile.Result
	// Routed carries the layout bookkeeping when the route pass ran:
	// the routed circuit on the compacted physical register (see
	// compactRouted), with InitialLayout and FinalLayout in those
	// compacted indices. A run embeds its input through InitialLayout
	// and measures each logical qubit at its FinalLayout home.
	Routed *layout.Routed
	// Stats holds one entry per executed pass, in pipeline order.
	Stats []Stats
	// SourceDepth is the logical circuit's depth before any pass;
	// NativeDepth is the final native circuit's depth — the depth the
	// noise model actually sees.
	SourceDepth int
	NativeDepth int
}

// Pipeline is a validated, reusable pass sequence. It is safe for
// concurrent Compile calls: pass instances are created per call.
type Pipeline struct {
	cfg      Config
	coupling *layout.CouplingMap // resolved when the list contains route
}

// New validates cfg and returns its pipeline. Structural constraints:
// decompose must appear exactly once, fuse (if present) must be last,
// route must come after decompose and requires Coupling, only fuse may
// follow route (a transform pass would see each routing SWAP as one
// op, not its 3 CX), and every name must be a known pass.
func New(cfg Config) (*Pipeline, error) {
	list := cfg.PassList()
	decomposeAt, routed := -1, false
	for i, name := range list {
		if routed && name != PassFuse {
			return nil, fmt.Errorf("compile: only fuse may follow route, got %q in %v", name, list)
		}
		switch name {
		case PassDecompose:
			if decomposeAt >= 0 {
				return nil, fmt.Errorf("compile: decompose appears twice in pass list %v", list)
			}
			decomposeAt = i
		case PassFuse:
			if i != len(list)-1 {
				return nil, fmt.Errorf("compile: fuse must be the terminal pass, got position %d in %v", i+1, list)
			}
		case PassRoute:
			if decomposeAt < 0 {
				return nil, fmt.Errorf("compile: route requires decompose earlier in the pass list (routing needs native 1q/2q gates)")
			}
			if cfg.Coupling == "" {
				return nil, fmt.Errorf("compile: route pass requires Config.Coupling")
			}
			routed = true
		case PassSinkDiagonals, PassCancelInverses, PassFoldAngles, PassPruneZeroAngle:
			// transform passes: valid anywhere before route and fuse
		default:
			return nil, fmt.Errorf("compile: unknown pass %q (known: %s)", name, strings.Join(KnownPasses(), ", "))
		}
	}
	if decomposeAt < 0 {
		return nil, fmt.Errorf("compile: pass list %v lacks decompose; the pipeline must lower to the native basis", list)
	}
	p := &Pipeline{cfg: cfg}
	if cfg.Coupling != "" {
		cm, err := ResolveCoupling(cfg.Coupling)
		if err != nil {
			return nil, err
		}
		p.coupling = cm
	}
	return p, nil
}

// KnownPasses lists every pass name New accepts, in canonical order.
func KnownPasses() []string {
	return []string{
		PassSinkDiagonals, PassDecompose, PassCancelInverses,
		PassFoldAngles, PassPruneZeroAngle, PassRoute, PassFuse,
	}
}

// Config returns the validated configuration.
func (p *Pipeline) Config() Config { return p.cfg }

// Hash is shorthand for p.Config().Hash().
func (p *Pipeline) Hash() string { return p.cfg.Hash() }

// Compile runs every pass over c and assembles the executable artifact.
// With cfg.Debug set, statevector equivalence is verified after every
// pass (on registers of at most DebugMaxQubits qubits) and the first
// violation aborts compilation with a descriptive error.
func (p *Pipeline) Compile(c *circuit.Circuit) (*Artifact, error) {
	art := &Artifact{SourceDepth: c.Depth()}
	cur := c
	var (
		res           *transpile.Result // span-exact lowering from decompose
		nativeChanged bool
	)
	for _, name := range p.cfg.PassList() {
		start := time.Now()
		var (
			next *circuit.Circuit
			st   Stats
			err  error
		)
		switch name {
		case PassDecompose:
			res = transpile.Transpile(cur)
			next = res.Circuit()
			st = measure(PassDecompose, cur, next)
		case PassRoute:
			routed := compactRouted(layout.Route(cur, p.coupling, nil))
			next = routed.Circuit
			st = measure(PassRoute, cur, lowerSwaps(next))
			st.Swaps = routed.SwapCount
			art.Routed = routed
			nativeChanged = true
		case PassFuse:
			// Terminal: settle the executable result, then materialize
			// the fused plan and report its shape.
			res = p.finalResult(res, cur, nativeChanged)
			nativeChanged = false
			fp := res.Fused()
			next = cur
			native := lowerSwaps(cur)
			st = measure(PassFuse, native, native)
			st.Segments = len(fp.Segments)
		default:
			var pass Pass
			pass, err = newPass(name)
			if err != nil {
				return nil, err
			}
			next, st, err = pass.Run(cur)
			if err != nil {
				return nil, fmt.Errorf("compile: pass %s: %w", name, err)
			}
			if res != nil && opsDiffer(cur, next) {
				nativeChanged = true
			}
		}
		st.Wall = time.Since(start)
		if p.cfg.Debug && name != PassFuse {
			// Only the route pass itself needs layout-aware comparison;
			// later passes transform the physical circuit in place.
			var rinfo *layout.Routed
			if name == PassRoute {
				rinfo = art.Routed
			}
			if err := verifyPass(name, cur, next, rinfo); err != nil {
				return nil, err
			}
		}
		cur = next
		art.Stats = append(art.Stats, st)
	}
	art.Result = p.finalResult(res, cur, nativeChanged)
	art.NativeDepth = lowerSwaps(cur).Depth()
	return art, nil
}

// compactRouted renumbers the routed circuit's physical qubits to the
// ones it uses — every qubit a routed op touches plus every
// InitialLayout qubit — in ascending physical order, and maps both
// layouts along. Idle device qubits never change an outcome but would
// widen every simulated register (27 heavy-hex qubits are 2 GiB of
// amplitudes). On a device the circuit fills, the map is the identity.
func compactRouted(r *layout.Routed) *layout.Routed {
	used := make([]bool, r.Circuit.NumQubits)
	for _, op := range r.Circuit.Ops {
		for _, q := range op.Active() {
			used[q] = true
		}
	}
	for _, p := range r.InitialLayout {
		used[p] = true
	}
	compact := make([]int, len(used))
	n := 0
	for p, u := range used {
		compact[p] = -1
		if u {
			compact[p] = n
			n++
		}
	}
	remap := func(lay []int) []int {
		out := make([]int, len(lay))
		for l, p := range lay {
			out[l] = compact[p]
		}
		return out
	}
	return &layout.Routed{
		Circuit:       r.Circuit.Remapped(n, compact),
		InitialLayout: remap(r.InitialLayout),
		FinalLayout:   remap(r.FinalLayout),
		SwapCount:     r.SwapCount,
	}
}

// lowerSwaps returns c with each routing SWAP lowered to its 3 CX, so
// route statistics count the native gates the noise model sees.
func lowerSwaps(c *circuit.Circuit) *circuit.Circuit {
	for _, op := range c.Ops {
		if op.Kind == gate.SWAP {
			return transpile.Transpile(c).Circuit()
		}
	}
	return c
}

// finalResult settles the executable Result: the span-exact decompose
// lowering when nothing touched the native ops afterwards, otherwise a
// re-wrap of the final native circuit as its own source. Native gates
// lower to themselves, so the re-wrap has identity spans and the noise
// engine injects at the exact same physical positions either way.
func (p *Pipeline) finalResult(res *transpile.Result, cur *circuit.Circuit, nativeChanged bool) *transpile.Result {
	if res != nil && !nativeChanged {
		return res
	}
	return transpile.Transpile(cur)
}

// measure fills a Stats record from the circuits before and after a
// pass (3q gates count toward neither arity bucket; none survive
// decompose).
func measure(pass string, before, after *circuit.Circuit) Stats {
	b1, b2, _ := before.CountByArity()
	a1, a2, _ := after.CountByArity()
	return Stats{
		Pass:      pass,
		OpsBefore: len(before.Ops), OpsAfter: len(after.Ops),
		OneQBefore: b1, OneQAfter: a1,
		TwoQBefore: b2, TwoQAfter: a2,
		DepthBefore: before.Depth(), DepthAfter: after.Depth(),
	}
}

// opsDiffer reports whether two circuits hold different op lists.
func opsDiffer(a, b *circuit.Circuit) bool {
	if len(a.Ops) != len(b.Ops) {
		return true
	}
	for i := range a.Ops {
		if a.Ops[i] != b.Ops[i] {
			return true
		}
	}
	return false
}

// ResolveCoupling parses a coupling-map name: "linear:N", "grid:RxC",
// or "heavyhex27".
func ResolveCoupling(name string) (*layout.CouplingMap, error) {
	switch {
	case name == "heavyhex27":
		return layout.HeavyHexFalcon27(), nil
	case strings.HasPrefix(name, "linear:"):
		var n int
		if _, err := fmt.Sscanf(name, "linear:%d", &n); err != nil || n < 2 {
			return nil, fmt.Errorf("compile: bad coupling %q (want linear:N, N ≥ 2)", name)
		}
		return layout.Linear(n), nil
	case strings.HasPrefix(name, "grid:"):
		var r, c int
		if _, err := fmt.Sscanf(name, "grid:%dx%d", &r, &c); err != nil || r < 1 || c < 1 || r*c < 2 {
			return nil, fmt.Errorf("compile: bad coupling %q (want grid:RxC)", name)
		}
		return layout.Grid(r, c), nil
	default:
		return nil, fmt.Errorf("compile: unknown coupling %q (want linear:N, grid:RxC, heavyhex27)", name)
	}
}
