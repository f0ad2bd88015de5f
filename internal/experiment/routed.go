package experiment

import (
	"context"
	"fmt"

	"qfarith/internal/arith"
	"qfarith/internal/backend"
	"qfarith/internal/compile"
	"qfarith/internal/layout"
	"qfarith/internal/metrics"
	"qfarith/internal/telemetry"
	"qfarith/internal/transpile"
)

// RunRoutedPoint is experiment E7: the same success-rate measurement as
// RunPoint, but with the circuit routed onto a restricted coupling map
// first, so the SWAP overhead the paper idealizes away ("we consider an
// idealized layout with complete qubit connectivity") contributes its
// real noise. Only addition geometries are supported (the QFM's
// 16-qubit routed circuits are out of scope for the 1-core harness).
//
// The measured register follows the router's final layout, so the
// metric scores exactly the same logical outcome as the unrouted run.
func RunRoutedPoint(cfg PointConfig, cm *layout.CouplingMap) PointResult {
	r, err := RunRoutedPointCtx(context.Background(), defaultRunner(cfg.Workers), cfg, cm)
	if err != nil {
		panic("experiment: " + err.Error())
	}
	return r
}

// RunRoutedPointCtx is RunRoutedPoint on a shared runner: routing and
// compaction happen once, then each operand instance is dispatched to
// the runner's backend through its bounded pool.
func RunRoutedPointCtx(ctx context.Context, r *backend.Runner, cfg PointConfig, cm *layout.CouplingMap) (PointResult, error) {
	if cfg.Geometry.Op != OpAdd {
		panic("experiment: routed points support addition only")
	}
	// The pre-route circuit compiles through cfg.Pipeline; this path owns
	// routing and physical-index compaction, so a pipeline route pass
	// would route twice.
	for _, name := range cfg.Pipeline.PassList() {
		if name == compile.PassRoute {
			return PointResult{}, fmt.Errorf("experiment: routed points route internally; drop %q from the pass list", compile.PassRoute)
		}
	}
	srun, err := cfg.newScorerRun()
	if err != nil {
		return PointResult{}, err
	}
	sp := telemetry.StartSpan(pointSec)
	art, err := cfg.Geometry.BuildArtifact(arith.Config{Depth: cfg.Depth, AddCut: arith.FullAdd}, cfg.Pipeline)
	if err != nil {
		return PointResult{}, err
	}
	routed := layout.Route(art.Result.Circuit(), cm, nil)

	// Compact the physical index space to the qubits the routed circuit
	// actually touches (a big device would otherwise force a full-device
	// statevector: 27 heavy-hex qubits = 2 GiB of amplitudes).
	used := map[int]bool{}
	for _, op := range routed.Circuit.Ops {
		for _, q := range op.Active() {
			used[q] = true
		}
	}
	for _, p := range routed.InitialLayout {
		used[p] = true
	}
	compact := make([]int, cm.NumQubits)
	for i := range compact {
		compact[i] = -1
	}
	nUsed := 0
	for p := 0; p < cm.NumQubits; p++ {
		if used[p] {
			compact[p] = nUsed
			nUsed++
		}
	}
	circ := routed.Circuit.Remapped(nUsed, compact)
	initLayout := make([]int, len(routed.InitialLayout))
	for l, p := range routed.InitialLayout {
		initLayout[l] = compact[p]
	}

	// The routed circuit is already native; re-wrap it for the backend.
	rres := transpile.Transpile(circ)

	// Physical measurement register: logical OutReg qubits at their
	// final physical homes.
	measure := make([]int, len(cfg.Geometry.OutReg))
	for i, l := range cfg.Geometry.OutReg {
		measure[i] = compact[routed.FinalLayout[l]]
	}

	results := make([]metrics.InstanceResult, cfg.Instances)
	var diag backend.Diagnostics
	err = r.Do(ctx, cfg.Instances, func(idx int) error {
		xs, ys := cfg.instanceOperands(idx)
		sc := getInstanceScratch()
		defer putInstanceScratch(sc)
		sc.terms = cfg.initialTerms(sc.terms, xs, ys)
		for i := range sc.terms {
			sc.terms[i].Index = embedIndex(sc.terms[i].Index, initLayout)
		}
		dist, d, err := r.Backend().Run(ctx, backend.PointSpec{
			Circuit:      rres,
			Model:        cfg.Model,
			Initial:      sc.terms,
			Measure:      measure,
			Trajectories: cfg.Trajectories,
			Seed1:        splitSeed(cfg.PointSeed, uint64(idx)),
			Seed2:        mixtureSeed2,
		})
		if err != nil {
			return err
		}
		results[idx] = cfg.sampleAndScore(sc, idx, xs, ys, dist, d.Ideal, srun)
		if idx == 0 {
			diag = d
		}
		return nil
	})
	if err != nil {
		return PointResult{}, err
	}
	sp.End()
	pointsFresh.Inc()
	st := metrics.Aggregate(results)
	if srun != nil {
		st.Extra = srun.aggregate()
	}
	one, two := rres.CountByArity()
	return PointResult{
		Config:         cfg,
		Stats:          st,
		NoErrorProb:    diag.NoErrorProb,
		ExpectedErrors: diag.ExpectedErrors,
		Native1q:       one,
		Native2q:       two,
	}, nil
}

// embedIndex maps a logical basis-state index onto the (possibly
// wider) physical register according to the initial layout: the
// physical index has bit initialLayout[l] set for each set bit l of the
// logical index. Unmapped physical qubits stay |0>.
func embedIndex(logical int, initialLayout []int) int {
	p := 0
	for l, phys := range initialLayout {
		if logical>>uint(l)&1 == 1 {
			p |= 1 << uint(phys)
		}
	}
	return p
}
