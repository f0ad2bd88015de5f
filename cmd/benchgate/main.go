// Command benchgate turns `go test -bench` output into a hard CI gate
// on allocation metrics. Timing (ns/op) on shared CI runners is too
// noisy to gate, but B/op and allocs/op are deterministic modulo
// sync.Pool warm-up, so regressions there are real code changes — a
// hot path that started allocating — and benchgate fails the build on
// them.
//
//	go test -run '^$' -bench . -benchtime 1x -benchmem . > bench_ci.txt
//	go run ./cmd/benchgate -baseline results/bench_baseline.txt -current bench_ci.txt
//
// Intentional changes regenerate the committed baseline:
//
//	go test -run '^$' -bench . -benchtime 1x -benchmem . | \
//	    go run ./cmd/benchgate -baseline results/bench_baseline.txt -update-bench-baseline
//
// Custom benchmark metrics (cx_gates, success%, ns/op) are carried
// through to the regenerated baseline but never gated. Small tolerances
// absorb sync.Pool and map-growth jitter at -benchtime=1x; they are
// tunable with -allocs-slack/-allocs-abs/-bytes-slack/-bytes-abs.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// benchResult holds the gated metrics of one benchmark line.
type benchResult struct {
	name   string
	bytes  float64 // B/op
	allocs float64 // allocs/op
	// hasMem distinguishes a benchmark run without -benchmem (no
	// allocation columns) from one that reported zero.
	hasMem bool
}

// parseBench extracts benchmark results from `go test -bench` output.
// Non-benchmark lines (goos/goarch headers, PASS, ok) and metrics other
// than B/op and allocs/op are skipped.
func parseBench(r io.Reader) (map[string]benchResult, error) {
	out := make(map[string]benchResult)
	buf, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	for _, line := range strings.Split(string(buf), "\n") {
		fields := strings.Fields(line)
		if len(fields) < 2 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		res := benchResult{name: trimProcs(fields[0])}
		// fields[1] is the iteration count; the rest are "value unit"
		// pairs. A trailing unpaired field (shouldn't happen) is ignored.
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("benchgate: bad value %q on line %q", fields[i], line)
			}
			switch fields[i+1] {
			case "B/op":
				res.bytes = v
				res.hasMem = true
			case "allocs/op":
				res.allocs = v
				res.hasMem = true
			}
		}
		out[res.name] = res
	}
	return out, nil
}

// trimProcs strips the "-N" GOMAXPROCS suffix `go test -bench` appends
// to every benchmark name when N > 1, so results from any core count
// compare against the suffix-free baseline.
func trimProcs(name string) string {
	i := strings.LastIndexByte(name, '-')
	if i < 0 || i == len(name)-1 {
		return name
	}
	for _, c := range name[i+1:] {
		if c < '0' || c > '9' {
			return name
		}
	}
	return name[:i]
}

// tolerances bound how far a metric may drift above its baseline
// before the gate fails: cur > base*(1+slack) + abs.
type tolerances struct {
	bytesSlack, bytesAbs   float64
	allocsSlack, allocsAbs float64
}

// gate compares current against baseline and returns the failure
// messages (empty = pass) and advisory notes.
func gate(baseline, current map[string]benchResult, tol tolerances) (failures, notes []string) {
	names := make([]string, 0, len(baseline))
	for name := range baseline {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		base := baseline[name]
		cur, ok := current[name]
		if !ok {
			failures = append(failures, fmt.Sprintf("%s: present in baseline but missing from the current run (renamed or deleted? regenerate the baseline)", name))
			continue
		}
		if !base.hasMem || !cur.hasMem {
			continue
		}
		if limit := base.bytes*(1+tol.bytesSlack) + tol.bytesAbs; cur.bytes > limit {
			failures = append(failures, fmt.Sprintf("%s: B/op %.0f > %.0f (baseline %.0f +%.0f%% +%.0f)",
				name, cur.bytes, limit, base.bytes, tol.bytesSlack*100, tol.bytesAbs))
		}
		if limit := base.allocs*(1+tol.allocsSlack) + tol.allocsAbs; cur.allocs > limit {
			failures = append(failures, fmt.Sprintf("%s: allocs/op %.0f > %.0f (baseline %.0f +%.0f%% +%.0f)",
				name, cur.allocs, limit, base.allocs, tol.allocsSlack*100, tol.allocsAbs))
		}
		// Meaningful improvements are worth locking in before they rot.
		if base.allocs > 0 && cur.allocs < base.allocs/2 {
			notes = append(notes, fmt.Sprintf("%s: allocs/op improved %.0f -> %.0f — consider regenerating the baseline to lock it in",
				name, base.allocs, cur.allocs))
		}
	}
	var added []string
	for name := range current {
		if _, ok := baseline[name]; !ok {
			added = append(added, name)
		}
	}
	sort.Strings(added)
	for _, name := range added {
		failures = append(failures, fmt.Sprintf("%s: not in the baseline — regenerate it to cover the new benchmark", name))
	}
	return failures, notes
}

func main() {
	baselinePath := flag.String("baseline", "results/bench_baseline.txt", "committed baseline bench output")
	currentPath := flag.String("current", "", "current bench output (default: stdin)")
	update := flag.Bool("update-bench-baseline", false, "overwrite the baseline with the current run instead of gating")
	bytesSlack := flag.Float64("bytes-slack", 0.15, "relative B/op headroom")
	bytesAbs := flag.Float64("bytes-abs", 4096, "absolute B/op headroom")
	allocsSlack := flag.Float64("allocs-slack", 0.10, "relative allocs/op headroom")
	allocsAbs := flag.Float64("allocs-abs", 4, "absolute allocs/op headroom")
	flag.Parse()

	var curReader io.Reader = os.Stdin
	var rawCurrent []byte
	if *currentPath != "" {
		b, err := os.ReadFile(*currentPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		rawCurrent = b
	} else {
		b, err := io.ReadAll(curReader)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		rawCurrent = b
	}
	current, err := parseBench(strings.NewReader(string(rawCurrent)))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if len(current) == 0 {
		fmt.Fprintln(os.Stderr, "benchgate: current run contains no benchmark lines")
		os.Exit(1)
	}

	if *update {
		if err := os.WriteFile(*baselinePath, rawCurrent, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("benchgate: baseline %s regenerated (%d benchmarks)\n", *baselinePath, len(current))
		return
	}

	bf, err := os.Open(*baselinePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	baseline, err := parseBench(bf)
	bf.Close()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	failures, notes := gate(baseline, current, tolerances{
		bytesSlack: *bytesSlack, bytesAbs: *bytesAbs,
		allocsSlack: *allocsSlack, allocsAbs: *allocsAbs,
	})
	for _, n := range notes {
		fmt.Println("note:", n)
	}
	if len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintln(os.Stderr, "FAIL:", f)
		}
		fmt.Fprintf(os.Stderr, "benchgate: %d allocation regression(s); intentional changes regenerate the baseline with -update-bench-baseline\n", len(failures))
		os.Exit(1)
	}
	fmt.Printf("benchgate: %d benchmarks within allocation tolerances\n", len(baseline))
}
