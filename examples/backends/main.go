// Backends: tour of the pluggable execution-backend layer. One small
// noisy Fourier addition is evaluated by every backend in the registry
// — discovered through backend.Names(), not hardcoded, so backends
// added later show up here automatically. The trajectory estimate then
// converges onto the exact output as its budget grows. The second half
// runs a panel sweep through a shared Runner and cancels it mid-grid,
// demonstrating that one bounded worker pool serves point- and
// instance-level parallelism and unwinds cleanly on cancellation.
package main

import (
	"context"
	"fmt"
	"math"

	"qfarith/internal/backend"
	"qfarith/internal/experiment"
	"qfarith/internal/noise"
	"qfarith/internal/qft"
)

func main() {
	fmt.Println("available backends:", backend.Names())
	fmt.Println()

	// One 1:2 addition instance on a 3+4-qubit adder (7 qubits — small
	// enough for the exact density backend).
	geo := experiment.AddGeometry(3, 4)
	res := geo.BuildCircuit(qft.Full)
	x, y := 5, 11
	want := (x + y) & 15
	spec := backend.PointSpec{
		Circuit: res,
		Model:   noise.PaperModel(0.002, 0.01),
		Initial: []backend.Amp{{Index: x | y<<3, Value: 1}},
		Measure: geo.OutReg,
		Seed1:   42, Seed2: 43,
	}

	// Exact channel output first, as the reference column.
	exactB, err := backend.New("density")
	if err != nil {
		panic(err)
	}
	exact, diag, err := exactB.Run(context.Background(), spec)
	if err != nil {
		panic(err)
	}
	fmt.Printf("QFA %d+%d under λ1=0.2%% λ2=1%% (w0 = %.3f)\n", x, y, diag.NoErrorProb)
	fmt.Printf("%-24s %12s %14s\n", "backend", "P(correct)", "L1 vs exact")

	// Every registered backend on the same point, discovered by name.
	spec.Trajectories = 4096
	for _, name := range backend.Names() {
		b, err := backend.New(name)
		if err != nil {
			panic(err)
		}
		dist, _, err := b.Run(context.Background(), spec)
		if err != nil {
			panic(err)
		}
		fmt.Printf("%-24s %12.4f %14.4f\n", name, dist[want], l1(dist, exact))
	}

	// The Monte Carlo estimate converges onto the exact output as the
	// trajectory budget grows.
	fmt.Println()
	trajB, _ := backend.New("trajectory")
	for _, k := range []int{16, 256, 4096} {
		spec.Trajectories = k
		dist, _, err := trajB.Run(context.Background(), spec)
		if err != nil {
			panic(err)
		}
		fmt.Printf("%-24s %12.4f %14.4f\n",
			fmt.Sprintf("trajectory (K=%d)", k), dist[want], l1(dist, exact))
	}
	fmt.Printf("%-24s %12.4f %14s\n", "density (exact)", exact[want], "—")

	// A cancellable one-panel sweep on a shared Runner: cancel after the
	// third completed point and show the sweep stops mid-grid.
	fmt.Println("\ncancelling a panel sweep mid-grid:")
	runner := backend.NewRunner(backend.NewTrajectoryBackend(), 4)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sweep := experiment.SweepSpec{
		Command: "demo", Geometry: geo, Depths: []int{1, 2, qft.Full},
		Axes: []experiment.ErrorAxis{experiment.Axis2Q}, Orders: [][2]int{{1, 2}},
		Rates2Q:   []float64{0, 0.005, 0.01, 0.02},
		Instances: 6, Shots: 256, Traj: 8, Seed: 7,
	}
	// Cells already in flight at the cancel still finish and report;
	// count only the ones reported before it.
	completed := 0
	_, err = experiment.RunSweep(ctx, runner, sweep, experiment.SweepOptions{Progress: func(p experiment.SweepProgress) {
		if ctx.Err() == nil {
			completed = p.Done
			if p.Done == 3 {
				cancel()
			}
		}
	}})
	hits, misses := runner.Cache().Stats()
	fmt.Printf("  %d/%d points finished before cancel, error: %v\n", completed, 12, err)
	fmt.Printf("  transpile cache at cancel: %d built, %d reused\n", misses, hits)
}

func l1(a, b backend.Distribution) float64 {
	var s float64
	for i := range a {
		s += math.Abs(a[i] - b[i])
	}
	return s
}
