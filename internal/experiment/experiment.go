// Package experiment reproduces the paper's evaluation: it sweeps
// QFA/QFM success rates over gate error rates, AQFT approximation
// depths, and operand superposition orders, scoring each point with the
// metrics package exactly as Sec. 4 describes (random operand instances,
// fixed shots each, success = no incorrect output out-counting a correct
// one).
package experiment

import (
	"context"
	"math"
	"math/rand/v2"
	"sync"

	"qfarith/internal/arith"
	"qfarith/internal/backend"
	"qfarith/internal/circuit"
	"qfarith/internal/compile"
	"qfarith/internal/metrics"
	"qfarith/internal/noise"
	"qfarith/internal/telemetry"
	"qfarith/internal/transpile"
)

// Op selects the arithmetic operation under test.
type Op int

const (
	// OpAdd is Quantum Fourier Addition with the paper's Fig. 3
	// geometry: a 7-qubit addend register x and an 8-qubit sum register
	// y (the register pair whose Table I gate counts match the paper).
	OpAdd Op = iota
	// OpMul is Quantum Fourier Multiplication with the Fig. 4 geometry:
	// 4-qubit multiplicands and an 8-qubit product register.
	OpMul
	// OpSub is Quantum Fourier Subtraction: the inverse phase ladder on
	// the QFA geometry, computing y ← (y − x) mod 2^w. Two's-complement
	// encoding makes the same circuit the signed subtractor.
	OpSub
	// OpMulSigned is the sign-corrected Fourier multiplier: operands
	// read as two's complement, product delivered in (n+m)-bit two's
	// complement.
	OpMulSigned
)

func (o Op) String() string {
	switch o {
	case OpAdd:
		return "qfa"
	case OpSub:
		return "qfs"
	case OpMulSigned:
		return "sqfm"
	default:
		return "qfm"
	}
}

// Geometry fixes the register layout of an operation.
type Geometry struct {
	Op             Op
	XBits, YBits   int   // operand register widths
	TotalQubits    int   // full simulator width
	XReg, YReg     []int // operand register qubit indices (LSB first)
	OutReg         []int // measured register
	OutBits        int
	ProductInWires bool // true when a separate product register exists
	ZReg           []int
}

// AddGeometry returns the paper's QFA layout: x on qubits 0..xbits-1,
// y on xbits..xbits+ybits-1; the sum register y is measured.
func AddGeometry(xbits, ybits int) Geometry {
	return Geometry{
		Op: OpAdd, XBits: xbits, YBits: ybits,
		TotalQubits: xbits + ybits,
		XReg:        arith.Range(0, xbits),
		YReg:        arith.Range(xbits, ybits),
		OutReg:      arith.Range(xbits, ybits),
		OutBits:     ybits,
	}
}

// MulGeometry returns the paper's QFM layout: product z on qubits
// 0..n+m-1, multiplicand y next, multiplier x last; z is measured.
func MulGeometry(n, m int) Geometry {
	return Geometry{
		Op: OpMul, XBits: n, YBits: m,
		TotalQubits:    2*n + 2*m,
		XReg:           arith.Range(n+2*m, n),
		YReg:           arith.Range(n+m, m),
		ZReg:           arith.Range(0, n+m),
		OutReg:         arith.Range(0, n+m),
		OutBits:        n + m,
		ProductInWires: true,
	}
}

// SubGeometry returns the QFS layout: identical registers to the QFA —
// x on qubits 0..xbits-1, minuend/difference y above it, y measured —
// since subtraction is the inverse phase ladder on the same wires.
func SubGeometry(xbits, ybits int) Geometry {
	g := AddGeometry(xbits, ybits)
	g.Op = OpSub
	return g
}

// SignedMulGeometry returns the signed QFM layout: identical registers
// to the unsigned QFM (product z measured, then y, then x), with the
// operands read as two's complement and the two sign-correction blocks
// appended.
func SignedMulGeometry(n, m int) Geometry {
	g := MulGeometry(n, m)
	g.Op = OpMulSigned
	return g
}

// PaperAddGeometry is the Fig. 3 / Table I QFA configuration.
func PaperAddGeometry() Geometry { return AddGeometry(7, 8) }

// PaperMulGeometry is the Fig. 4 / Table I QFM configuration.
func PaperMulGeometry() Geometry { return MulGeometry(4, 4) }

// PaperSubGeometry is the signed-panel QFS configuration: the Fig. 3
// register sizes with the subtractor circuit.
func PaperSubGeometry() Geometry { return SubGeometry(7, 8) }

// PaperSignedMulGeometry is the signed-panel QFM configuration: the
// Fig. 4 register sizes with the sign-corrected multiplier.
func PaperSignedMulGeometry() Geometry { return SignedMulGeometry(4, 4) }

// BuildCircuit constructs the operation's native circuit at AQFT
// depth d with full addition steps.
func (g Geometry) BuildCircuit(d int) *transpile.Result {
	return transpile.Transpile(g.LogicalCircuit(arith.Config{Depth: d, AddCut: arith.FullAdd}))
}

// LogicalCircuit constructs the operation's logical (pre-compilation)
// gate list — the input the compile pipeline consumes.
func (g Geometry) LogicalCircuit(cfg arith.Config) *circuit.Circuit {
	c := newCircuit(g.TotalQubits)
	switch g.Op {
	case OpAdd:
		arith.QFAGates(c, g.XReg, g.YReg, cfg)
	case OpSub:
		arith.SubGates(c, g.XReg, g.YReg, cfg)
	case OpMul:
		arith.QFMGates(c, g.XReg, g.YReg, g.ZReg, cfg)
	case OpMulSigned:
		arith.SignedQFMGates(c, g.XReg, g.YReg, g.ZReg, cfg)
	}
	return c
}

// BuildArtifact compiles the operation's circuit through the given
// pipeline configuration, returning the executable result plus per-pass
// statistics.
func (g Geometry) BuildArtifact(acfg arith.Config, pcfg compile.Config) (*compile.Artifact, error) {
	p, err := compile.New(pcfg)
	if err != nil {
		return nil, err
	}
	return p.Compile(g.LogicalCircuit(acfg))
}

// PointConfig describes a single plotted point of Figs. 3/4.
type PointConfig struct {
	Geometry Geometry
	Depth    int // AQFT depth; qft.Full for the full transform
	Model    noise.Model
	// OrderX and OrderY are each operand's order of superposition (the
	// paper sweeps 1:1, 1:2, 2:2; for addition the order-2 operand of a
	// 1:2 instance is the updated register y, per Sec. 4).
	OrderX, OrderY int
	Instances      int
	Shots          int
	Trajectories   int
	// RowSeed fixes operand sampling: the paper reuses the same operand
	// sets across the 1q and 2q columns of a row, so RowSeed should
	// depend only on (op, orders) while PointSeed varies per point.
	RowSeed   uint64
	PointSeed uint64
	// Workers bounds instance-level parallelism; 0 = GOMAXPROCS.
	Workers int
	// Pipeline selects the compilation pass pipeline; the zero value is
	// the default (decompose,fuse) pipeline the paper's figures use.
	Pipeline compile.Config
	// Scorers names additional success metrics to evaluate beside the
	// always-on margin scoring, each making one pass over the same shot
	// histogram. Empty means margin only; the field is omitted from
	// checkpoint payloads (and therefore from config hashes) when empty,
	// so historical runs stay resumable and byte-identical.
	Scorers []string `json:",omitempty"`
}

// PointResult is the aggregated outcome of one plotted point.
type PointResult struct {
	Config PointConfig
	Stats  metrics.PointStats
	// NoErrorProb and ExpectedErrors describe the noise exposure of the
	// circuit at this point.
	NoErrorProb    float64
	ExpectedErrors float64
	Native1q       int
	Native2q       int
	Paper1q        int
	Paper2q        int
}

// SplitSeed derives a decorrelated stream seed with SplitMix64 — the
// one seed-splitting rule of every sweep, point and instance stream.
func SplitSeed(base, idx uint64) uint64 {
	z := base + 0x9e3779b97f4a7c15*(idx+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// sampleDistinct draws k distinct integers from [0, n).
func sampleDistinct(rng *rand.Rand, k, n int) []int {
	if k > n {
		panic("experiment: cannot sample more distinct values than the range holds")
	}
	out := make([]int, 0, k)
	seen := make(map[int]bool, k)
	for len(out) < k {
		v := rng.IntN(n)
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}

// instanceOperands draws the operand values for instance idx of a row.
func (cfg PointConfig) instanceOperands(idx int) (xs, ys []int) {
	rng := rand.New(rand.NewPCG(SplitSeed(cfg.RowSeed, uint64(idx)), 0x5851f42d4c957f2d))
	xs = sampleDistinct(rng, cfg.OrderX, 1<<uint(cfg.Geometry.XBits))
	ys = sampleDistinct(rng, cfg.OrderY, 1<<uint(cfg.Geometry.YBits))
	return
}

// initialTerms writes the product-state input for the given operand
// superpositions into buf[:0] and returns it: one term per operand pair,
// equal magnitudes, zero phase, matching the paper's evenly-distributed
// probability amplitudes.
func (cfg PointConfig) initialTerms(buf []backend.Amp, xs, ys []int) []backend.Amp {
	g := cfg.Geometry
	amp := complex(1/math.Sqrt(float64(len(xs)*len(ys))), 0)
	buf = buf[:0]
	for _, x := range xs {
		for _, y := range ys {
			var idx int
			switch g.Op {
			case OpAdd, OpSub:
				idx = x | y<<uint(g.XBits)
			case OpMul, OpMulSigned:
				// z starts at 0; y then x above it.
				idx = y<<uint(g.OutBits) | x<<uint(g.OutBits+g.YBits)
			}
			buf = append(buf, backend.Amp{Index: idx, Value: amp})
		}
	}
	return buf
}

// mixtureSeed2 is the fixed second PCG seed word of the per-instance
// trajectory RNG (the first word chains PointSeed with the instance
// index). It predates the backend layer; keeping it preserves
// bit-identical default-backend output across the refactor.
const mixtureSeed2 = 0xda3e39cb94b95bdb

// cacheKey identifies the point's circuit inside a transpile cache: the
// arithmetic parameters plus the pipeline hash, so differently-compiled
// copies of the same circuit never alias.
func (g Geometry) cacheKey(acfg arith.Config, pcfg compile.Config) backend.CircuitKey {
	return backend.CircuitKey{
		Family: g.Op.String(),
		XBits:  g.XBits, YBits: g.YBits,
		Depth: acfg.Depth, AddCut: acfg.AddCut,
		Pipeline: pcfg.Hash(),
	}
}

// PointOptions selects how RunPoint runs one point beyond its config.
type PointOptions struct {
	// AddCut is the addition-step rotation cutoff (arith.Config.AddCut,
	// the E6 ablation knob); 0 means arith.FullAdd.
	AddCut int
	// Key names the point inside Checkpoint.
	Key string
	// Checkpoint, when non-nil, makes the point durable: a point already
	// stored under Key is returned without simulating, and a freshly run
	// point is recorded under Key before RunPoint returns.
	Checkpoint CheckpointStore
}

// RunPoint simulates every operand instance of one plotted point on the
// runner's shared worker pool and aggregates the paper's statistics.
// The circuit compiles through cfg.Pipeline, memoized in the runner's
// cache under the pipeline hash; an invalid pipeline or a debug-mode
// verification failure surfaces as an error. Cancelling ctx stops
// scheduling further instances and returns ctx.Err().
func RunPoint(ctx context.Context, r *backend.Runner, cfg PointConfig, opts PointOptions) (PointResult, error) {
	if opts.Checkpoint != nil {
		if pr, ok, err := lookupPoint(opts.Checkpoint, opts.Key); ok || err != nil {
			return pr, err
		}
	}
	addCut := opts.AddCut
	if addCut == 0 {
		addCut = arith.FullAdd
	}
	pr, err := runPoint(ctx, r, cfg, addCut)
	if err == nil && opts.Checkpoint != nil {
		err = opts.Checkpoint.AppendPoint(opts.Key, pr)
	}
	if err != nil {
		return PointResult{}, err
	}
	return pr, nil
}

// runPoint is the one instance loop every point runs through. When the
// pipeline routed the circuit, each instance's input embeds through the
// artifact's InitialLayout and the measured register is read at its
// FinalLayout homes; otherwise the logical register indices are the
// physical ones and no instance pays for a remap.
func runPoint(ctx context.Context, r *backend.Runner, cfg PointConfig, addCut int) (PointResult, error) {
	acfg := arith.Config{Depth: cfg.Depth, AddCut: addCut}
	art, err := r.Cache().GetCompiled(cfg.Geometry.cacheKey(acfg, cfg.Pipeline), func() (*compile.Artifact, error) {
		return cfg.Geometry.BuildArtifact(acfg, cfg.Pipeline)
	})
	if err != nil {
		return PointResult{}, err
	}
	srun, err := cfg.newScorerRun()
	if err != nil {
		return PointResult{}, err
	}
	pl := placement{measure: cfg.Geometry.OutReg}
	if art.Routed != nil {
		pl.initial = art.Routed.InitialLayout
		pl.measure = make([]int, len(cfg.Geometry.OutReg))
		for i, l := range cfg.Geometry.OutReg {
			pl.measure[i] = art.Routed.FinalLayout[l]
		}
	}
	res := art.Result
	sp := telemetry.StartSpan(pointSec)
	results := make([]metrics.InstanceResult, cfg.Instances)
	var (
		diagOnce sync.Once
		diag     backend.Diagnostics
	)
	err = r.Do(ctx, cfg.Instances, func(idx int) error {
		ir, d, err := cfg.runInstance(ctx, r.Backend(), res, pl, idx, srun)
		if err != nil {
			return err
		}
		results[idx] = ir
		diagOnce.Do(func() { diag = d })
		return nil
	})
	if err != nil {
		return PointResult{}, err
	}
	// Only completed points feed the latency histogram: a cancelled
	// point returns quickly and would drag the quantiles toward zero.
	sp.End()
	pointsFresh.Inc()

	st := metrics.Aggregate(results)
	if srun != nil {
		st.Extra = srun.aggregate()
	}
	one, two := res.CountByArity()
	p1, p2 := transpile.PaperCounts(srcCircuit(res))
	return PointResult{
		Config:         cfg,
		Stats:          st,
		NoErrorProb:    diag.NoErrorProb,
		ExpectedErrors: diag.ExpectedErrors,
		Native1q:       one,
		Native2q:       two,
		Paper1q:        p1,
		Paper2q:        p2,
	}, nil
}

// placement maps a point's logical registers onto the compiled
// circuit's qubits: measure lists the physical qubits read out (LSB
// first), and a non-nil initial is the routed InitialLayout every input
// term embeds through.
type placement struct {
	measure []int
	initial []int
}

// embedIndex maps a logical basis-state index onto the physical
// register according to the initial layout: the physical index has bit
// initialLayout[l] set for each set bit l of the logical index.
// Unmapped physical qubits stay |0>.
func embedIndex(logical int, initialLayout []int) int {
	p := 0
	for l, phys := range initialLayout {
		if logical>>uint(l)&1 == 1 {
			p |= 1 << uint(phys)
		}
	}
	return p
}

// runInstance evaluates one operand instance through the backend and
// scores the sampled shots with the paper's metric. Every per-instance
// buffer — the sparse input terms and the sampling/scoring tail's
// histogram, correct-set, and sampler — comes from the instance scratch
// pool, so a warm sweep allocates nothing here beyond what the backend
// returns.
func (cfg PointConfig) runInstance(ctx context.Context, b backend.Backend, res *transpile.Result, pl placement, idx int, srun *scorerRun) (metrics.InstanceResult, backend.Diagnostics, error) {
	xs, ys := cfg.instanceOperands(idx)
	sc := getInstanceScratch()
	defer putInstanceScratch(sc)
	sc.terms = cfg.initialTerms(sc.terms, xs, ys)
	if pl.initial != nil {
		for i := range sc.terms {
			sc.terms[i].Index = embedIndex(sc.terms[i].Index, pl.initial)
		}
	}
	dist, diag, err := b.Run(ctx, backend.PointSpec{
		Circuit:      res,
		Model:        cfg.Model,
		Initial:      sc.terms,
		Measure:      pl.measure,
		Trajectories: cfg.Trajectories,
		Seed1:        SplitSeed(cfg.PointSeed, uint64(idx)),
		Seed2:        mixtureSeed2,
	})
	if err != nil {
		return metrics.InstanceResult{}, backend.Diagnostics{}, err
	}
	ir := cfg.sampleAndScore(sc, idx, xs, ys, dist, diag.Ideal, srun)
	return ir, diag, nil
}
