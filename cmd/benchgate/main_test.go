package main

import (
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: qfarith
cpu: Intel(R) Xeon(R) Processor @ 2.70GHz
BenchmarkTable1GateCounts             	       1	    271733 ns/op	  216920 B/op	    1565 allocs/op
BenchmarkFig3a_QFA_1q_11              	       1	  43295162 ns/op	       142.0 cx_gates	       100.0 success%	 3317216 B/op	     208 allocs/op
BenchmarkQFTApply8                    	       1	     17656 ns/op	       0 B/op	       0 allocs/op
BenchmarkNoMemColumns                 	       1	     12345 ns/op
PASS
ok  	qfarith	2.037s
`

func TestParseBench(t *testing.T) {
	got, err := parseBench(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 {
		t.Fatalf("parsed %d benchmarks, want 4", len(got))
	}
	tbl := got["BenchmarkTable1GateCounts"]
	if tbl.bytes != 216920 || tbl.allocs != 1565 || !tbl.hasMem {
		t.Errorf("Table1 = %+v, want bytes=216920 allocs=1565", tbl)
	}
	// Custom metrics (cx_gates, success%) must not disturb the parse.
	fig := got["BenchmarkFig3a_QFA_1q_11"]
	if fig.bytes != 3317216 || fig.allocs != 208 {
		t.Errorf("Fig3a = %+v, want bytes=3317216 allocs=208", fig)
	}
	if zero := got["BenchmarkQFTApply8"]; zero.bytes != 0 || zero.allocs != 0 || !zero.hasMem {
		t.Errorf("QFTApply8 = %+v, want zeroed mem columns present", zero)
	}
	if nm := got["BenchmarkNoMemColumns"]; nm.hasMem {
		t.Errorf("NoMemColumns parsed as having mem columns: %+v", nm)
	}
}

// TestParseBenchStripsProcsSuffix: on a multi-core host `go test
// -bench` names results "BenchmarkX-2"; they must match the
// suffix-free baseline names, while digits inside a name stay.
func TestParseBenchStripsProcsSuffix(t *testing.T) {
	const out = `BenchmarkTable1GateCounts-2   	       1	    271733 ns/op	  216920 B/op	    1565 allocs/op
BenchmarkTrajectoryMixture/factored-qfa-22-k24-16 	       1	   1370000 ns/op	       0 B/op	       0 allocs/op
BenchmarkQFTApply8            	       1	     17656 ns/op	       0 B/op	       0 allocs/op
`
	got, err := parseBench(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"BenchmarkTable1GateCounts", "BenchmarkTrajectoryMixture/factored-qfa-22-k24", "BenchmarkQFTApply8"} {
		if _, ok := got[name]; !ok {
			t.Errorf("missing %q in %v", name, got)
		}
	}
	if tbl := got["BenchmarkTable1GateCounts"]; tbl.allocs != 1565 || tbl.name != "BenchmarkTable1GateCounts" {
		t.Errorf("Table1 = %+v, want allocs=1565 under the suffix-free name", tbl)
	}
}

func TestParseBenchBadValue(t *testing.T) {
	if _, err := parseBench(strings.NewReader("BenchmarkX 1 oops B/op\n")); err == nil {
		t.Fatal("want error for unparsable value")
	}
}

func defaultTol() tolerances {
	return tolerances{bytesSlack: 0.15, bytesAbs: 4096, allocsSlack: 0.10, allocsAbs: 4}
}

func bench(name string, bytes, allocs float64) map[string]benchResult {
	return map[string]benchResult{name: {name: name, bytes: bytes, allocs: allocs, hasMem: true}}
}

func TestGateWithinTolerancePasses(t *testing.T) {
	base := bench("BenchmarkA", 1000, 100)
	cur := bench("BenchmarkA", 1100, 104) // +10% bytes, +4 allocs
	failures, _ := gate(base, cur, defaultTol())
	if len(failures) != 0 {
		t.Errorf("unexpected failures: %v", failures)
	}
}

func TestGateAllocRegressionFails(t *testing.T) {
	base := bench("BenchmarkA", 1000, 100)
	cur := bench("BenchmarkA", 1000, 130) // +30% allocs
	failures, _ := gate(base, cur, defaultTol())
	if len(failures) != 1 || !strings.Contains(failures[0], "allocs/op") {
		t.Errorf("failures = %v, want one allocs/op failure", failures)
	}
}

func TestGateBytesRegressionFails(t *testing.T) {
	base := bench("BenchmarkA", 100000, 10)
	cur := bench("BenchmarkA", 130000, 10) // +30% bytes
	failures, _ := gate(base, cur, defaultTol())
	if len(failures) != 1 || !strings.Contains(failures[0], "B/op") {
		t.Errorf("failures = %v, want one B/op failure", failures)
	}
}

func TestGateZeroBaselineAbsoluteHeadroom(t *testing.T) {
	// A zero-alloc benchmark may jitter by the absolute headroom (pool
	// warm-up) but not beyond.
	base := bench("BenchmarkZero", 0, 0)
	ok := bench("BenchmarkZero", 4096, 4)
	if failures, _ := gate(base, ok, defaultTol()); len(failures) != 0 {
		t.Errorf("within absolute headroom, got failures: %v", failures)
	}
	bad := bench("BenchmarkZero", 5000, 5)
	if failures, _ := gate(base, bad, defaultTol()); len(failures) != 2 {
		t.Errorf("beyond absolute headroom, failures = %v, want 2", failures)
	}
}

func TestGateMissingAndAddedBenchmarks(t *testing.T) {
	base := bench("BenchmarkOld", 10, 1)
	cur := bench("BenchmarkNew", 10, 1)
	failures, _ := gate(base, cur, defaultTol())
	if len(failures) != 2 {
		t.Fatalf("failures = %v, want missing+added", failures)
	}
	if !strings.Contains(failures[0], "missing") || !strings.Contains(failures[1], "not in the baseline") {
		t.Errorf("unexpected failure wording: %v", failures)
	}
}

func TestGateImprovementIsAdvisory(t *testing.T) {
	base := bench("BenchmarkA", 1000, 100)
	cur := bench("BenchmarkA", 500, 10)
	failures, notes := gate(base, cur, defaultTol())
	if len(failures) != 0 {
		t.Errorf("improvement failed the gate: %v", failures)
	}
	if len(notes) != 1 || !strings.Contains(notes[0], "improved") {
		t.Errorf("notes = %v, want one improvement note", notes)
	}
}
