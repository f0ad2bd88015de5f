package backend

import (
	"sync"

	"qfarith/internal/compile"
	"qfarith/internal/telemetry"
	"qfarith/internal/transpile"
)

// CircuitKey identifies one compiled circuit inside a TranspileCache:
// the circuit family plus every parameter that shapes its gate list,
// including the compilation pipeline that produced it. A figure panel
// revisits the identical (geometry, depth, arithmetic config, pipeline)
// circuit once per error rate — the noise model varies but the circuit
// does not — so caching on this key removes all repeat compilation from
// a sweep.
type CircuitKey struct {
	// Family names the circuit construction ("qfa", "qfm", ...).
	Family string
	// XBits, YBits are the operand register widths.
	XBits, YBits int
	// Depth is the AQFT approximation depth.
	Depth int
	// AddCut is the addition-step rotation cutoff (arith.Config.AddCut).
	AddCut int
	// Pipeline is the deterministic hash of the compile.Config that
	// compiled the circuit (compile.Config.Hash()); two configs with
	// equal hashes produce identical output, so they may share an
	// entry. Legacy Get callers leave it empty.
	Pipeline string
}

// TranspileCache memoizes compiled artifacts by CircuitKey: the
// executable circuit, the per-pass statistics of the pipeline run that
// built it, and the routed layout when a route pass ran. It is safe for
// concurrent use; a returned artifact is shared and must be treated as
// immutable (every consumer in this codebase already does).
type TranspileCache struct {
	mu     sync.Mutex
	m      map[CircuitKey]*compile.Artifact
	hits   int
	misses int
	// ctrs memoizes the labeled hit/miss counter pair per pipeline
	// hash: resolving a labeled counter builds its identity string, and
	// GetCompiled runs once per point of a sweep.
	ctrs map[string]*pipelineCounters
}

type pipelineCounters struct {
	hit, miss *telemetry.Counter
}

// NewTranspileCache returns an empty cache.
func NewTranspileCache() *TranspileCache {
	return &TranspileCache{
		m:    make(map[CircuitKey]*compile.Artifact),
		ctrs: make(map[string]*pipelineCounters),
	}
}

// countersFor resolves (and memoizes) the cache-event counters for one
// pipeline hash. Callers must hold c.mu.
func (c *TranspileCache) countersFor(pipeline string) *pipelineCounters {
	pc, ok := c.ctrs[pipeline]
	if !ok {
		pc = &pipelineCounters{
			hit:  cacheCounter("transpile", "hit", pipeline),
			miss: cacheCounter("transpile", "miss", pipeline),
		}
		c.ctrs[pipeline] = pc
	}
	return pc
}

// Get returns the cached circuit for key, calling build to construct it
// on the first request. Concurrent Gets for the same key build at most
// once; build must be pure (same key → same circuit).
func (c *TranspileCache) Get(key CircuitKey, build func() *transpile.Result) *transpile.Result {
	art, err := c.GetCompiled(key, func() (*compile.Artifact, error) {
		return &compile.Artifact{Result: build()}, nil
	})
	if err != nil {
		// Unreachable: the adapter above never errors.
		panic("backend: " + err.Error())
	}
	return art.Result
}

// GetCompiled is Get for pipeline builds: it memoizes the whole
// compiled artifact — circuit, per-pass stats and routed layout — and
// propagates build errors (a failed build is not cached).
func (c *TranspileCache) GetCompiled(key CircuitKey, build func() (*compile.Artifact, error)) (*compile.Artifact, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if art, ok := c.m[key]; ok {
		c.hits++
		c.countersFor(key.Pipeline).hit.Inc()
		return art, nil
	}
	art, err := build()
	if err != nil {
		return nil, err
	}
	c.misses++
	c.countersFor(key.Pipeline).miss.Inc()
	c.m[key] = art
	return art, nil
}

// cacheCounter resolves the shared cache-event counter. The pipeline
// label stays low-cardinality because a process compiles through at
// most a handful of distinct pass configurations (see the telemetry
// package's label rules); legacy non-pipeline builds report as "none".
func cacheCounter(cache, result, pipeline string) *telemetry.Counter {
	if pipeline == "" {
		pipeline = "none"
	}
	return telemetry.Default().Counter("qfarith_cache_events_total",
		telemetry.L("cache", cache), telemetry.L("result", result), telemetry.L("pipeline", pipeline))
}

// Stats reports the cache's hit and miss counts.
func (c *TranspileCache) Stats() (hits, misses int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// Len returns how many circuits the cache holds.
func (c *TranspileCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

// PassStats aggregates the per-pass statistics across every compiled
// circuit the cache holds, summed by pass name in first-seen pipeline
// order — the sweep-level view a CLI summary table prints. Circuits
// compiled without a pipeline (legacy Get) contribute nothing.
func (c *TranspileCache) PassStats() []compile.Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	var order []string
	agg := make(map[string]*compile.Stats)
	for _, art := range c.m {
		for _, st := range art.Stats {
			a, ok := agg[st.Pass]
			if !ok {
				order = append(order, st.Pass)
				cp := st
				agg[st.Pass] = &cp
				continue
			}
			a.OpsBefore += st.OpsBefore
			a.OpsAfter += st.OpsAfter
			a.OneQBefore += st.OneQBefore
			a.OneQAfter += st.OneQAfter
			a.TwoQBefore += st.TwoQBefore
			a.TwoQAfter += st.TwoQAfter
			a.DepthBefore += st.DepthBefore
			a.DepthAfter += st.DepthAfter
			a.Wall += st.Wall
			a.Segments += st.Segments
			a.Swaps += st.Swaps
		}
	}
	out := make([]compile.Stats, 0, len(order))
	for _, name := range order {
		out = append(out, *agg[name])
	}
	return out
}
