// Command perfbench is the repository's end-to-end benchmark. It runs
// one named workload through the program's Go API, checks every output,
// and prints the end-to-end metrics (or, with --trace 1, the per-layer
// metrics) as the last line of standard output:
//
//	bash perfbench/run.sh --workload fig3-qfa-2q --seed 1 --seconds 50 --trace 0
//
// run.sh builds this package from source inside the checkout and execs
// it. --steady N runs each workload N times with consecutive seeds and
// prints every end-to-end metric's median, quartiles and relative IQR.
// README.md describes the workloads, the metrics and what each layer
// metric is expected to move.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"qfarith/internal/server"
)

// workers is the shared pool size of every workload: the 2-core
// reference host's nproc.
const workers = 2

// defaultSeed is the workload seed at which the panel CSV digests are
// pinned.
const defaultSeed = 1

// runLimit bounds one run, leaving margin under the 180 s a run may
// take.
const runLimit = 170 * time.Second

var panelWorkloads = map[string]panelWorkload{
	"fig3-qfa-2q": {req: server.JobRequest{Command: "fig3", Axis: "2q", Orders: "2:2", Instances: 2, Shots: 2048, Trajectories: 24},
		digest: "1ec592aa7bd7985278a4317d4794923dbde05a49a2a5e23c20db6f8b4621f0c5"},
	"fig4-qfm-2q": {req: server.JobRequest{Command: "fig4", Axis: "2q", Orders: "1:1", Instances: 3, Shots: 2048, Trajectories: 8},
		digest: "65abe7f5c7ac7ba110cd1bad9674b88e052514ce20ad823fd5ad7eb05ed9132a"},
}

const daemonWorkload = "daemon-small-jobs"

type options struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	workdir  string
	traceDir string
}

func main() {
	var (
		o        options
		seconds  float64
		trace    int
		steady   int
		workRoot string
	)
	flag.StringVar(&o.workload, "workload", "", "workload name: fig3-qfa-2q, fig4-qfm-2q or daemon-small-jobs")
	flag.Uint64Var(&o.seed, "seed", defaultSeed, "workload seed; inputs derive from it alone")
	flag.Float64Var(&seconds, "seconds", 50, "measured seconds per run")
	flag.IntVar(&trace, "trace", 0, "1 = traced run printing per-layer metrics")
	flag.StringVar(&workRoot, "workdir", ".bench_build/perfbench-work", "scratch directory for run directories (removed at exit)")
	flag.StringVar(&o.traceDir, "trace-dir", ".bench_build/perfbench-traces", "where traced runs write their spans")
	flag.IntVar(&steady, "steady", 0, "steadiness mode: run each workload this many times with consecutive seeds")
	flag.Parse()
	o.seconds = time.Duration(seconds * float64(time.Second))
	o.trace = trace == 1

	if steady > 0 {
		if err := runSteady(steady, o.seed, seconds, workRoot); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	if trace != 0 && trace != 1 {
		fail(fmt.Errorf("--trace must be 0 or 1"))
	}
	if _, ok := panelWorkloads[o.workload]; !ok && o.workload != daemonWorkload {
		fail(fmt.Errorf("unknown workload %q", o.workload))
	}
	host, err := json.Marshal(fingerprint())
	if err != nil {
		fail(err)
	}
	fmt.Printf("host %s\n", host)

	o.workdir = filepath.Join(workRoot, fmt.Sprintf("%s-%d", o.workload, os.Getpid()))
	ctx, cancel := context.WithTimeout(context.Background(), runLimit)
	res, err := run(ctx, o)
	cancel()
	removeAll(o.workdir)
	if err != nil {
		fail(err)
	}
	line, err := res.json(o.trace)
	if err != nil {
		fail(err)
	}
	if res.err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: output check failed:", res.err)
	}
	fmt.Println(string(line))
}

func run(ctx context.Context, o options) (result, error) {
	if w, ok := panelWorkloads[o.workload]; ok {
		return w.runPanel(ctx, o)
	}
	return runDaemon(ctx, o)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// logSetups prints an untraced run's set-up times to standard error.
func logSetups(setups []float64) {
	fmt.Fprintf(os.Stderr, "perfbench: %d set-ups, median %.4f s, quartiles %.4f..%.4f s\n",
		len(setups), median(setups), lowerQuartile(setups), upperQuartile(setups))
}

func removeAll(dir string) {
	if err := os.RemoveAll(dir); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
}

// writeSpans writes the traced phase's spans beside the other build
// outputs and names the file on standard output.
func (o options) writeSpans(origin time.Time, spans []span) error {
	if err := os.MkdirAll(o.traceDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(o.traceDir, fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed))
	if err := writeTrace(path, origin, spans); err != nil {
		return err
	}
	fmt.Printf("trace %s (%d spans)\n", path, len(spans))
	return nil
}

// result is one run's outcome. err is an output that failed its check:
// the run still prints, with correct false. fatal is a run that cannot
// report at all.
type result struct {
	attempted, failed int
	err               error
	fatal             error
	values            map[string]metricVal
}

type metricVal struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *result) add(name string, v float64, unit string) {
	if r.values == nil {
		r.values = map[string]metricVal{}
	}
	r.values[name] = metricVal{Value: v, Unit: unit}
}

func (r *result) fail(format string, args ...any) {
	if r.fatal == nil {
		r.fatal = fmt.Errorf(format, args...)
	}
}

// addLatency adds job_p50_s and job_p90_s over the given latencies. A
// failed or refused operation enters as +Inf, so it misses any limit; a
// percentile that lands on one reports the whole timed phase.
func (r *result) addLatency(lat []float64, phase time.Duration) {
	for _, p := range []struct {
		name string
		q    float64
	}{{"job_p50_s", 0.5}, {"job_p90_s", 0.9}} {
		v, ok := percentile(lat, p.q)
		if !ok {
			r.fail("%s rests on %d samples, fewer than %d lie beyond it", p.name, len(lat), minBeyond)
		}
		if math.IsInf(v, 1) {
			v = phase.Seconds()
		}
		r.add(p.name, v, "s")
	}
}

// json renders the result line, refusing one that lacks a declared
// metric or holds a value JSON cannot carry.
func (r *result) json(traced bool) ([]byte, error) {
	if r.fatal != nil {
		return nil, r.fatal
	}
	want := endToEnd
	if traced {
		want = perLayer
	}
	out := map[string]metricVal{}
	for _, m := range want {
		v, ok := r.values[m.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", m.name)
		}
		if v.Unit != m.unit {
			return nil, fmt.Errorf("metric %s has unit %q, declared %q", m.name, v.Unit, m.unit)
		}
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return nil, fmt.Errorf("metric %s is %v", m.name, v.Value)
		}
		out[m.name] = v
	}
	if r.attempted < 1 {
		return nil, fmt.Errorf("no operation was attempted")
	}
	return json.Marshal(struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]metricVal `json:"metrics"`
	}{r.err == nil && r.failed == 0, r.attempted, r.failed, out})
}

func okFrac(attempted, failed int) float64 {
	if attempted == 0 {
		return 0
	}
	return float64(attempted-failed) / float64(attempted)
}

// splitmix derives a decorrelated seed (SplitMix64), never 0: a zero
// seed means "default" to the daemon's API.
func splitmix(base, idx uint64) uint64 {
	z := base + 0x9e3779b97f4a7c15*(idx+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = 1
	}
	return z
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size in MiB. Each run is
// its own process, so this is the workload's alone.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

type hostInfo struct {
	NProc       int    `json:"nproc"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	CPUModel    string `json:"cpu_model"`
	GoVersion   string `json:"go_version"`
	GitDescribe string `json:"git_describe"`
}

func fingerprint() hostInfo {
	h := hostInfo{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		CPUModel: "unknown", GitDescribe: "unknown"}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	if out, err := exec.Command("git", "describe", "--always", "--dirty").Output(); err == nil {
		h.GitDescribe = strings.TrimSpace(string(out))
	}
	return h
}

// runSteady runs each workload n times, each run a fresh process with
// its own seed, and prints every end-to-end metric's median, quartiles
// and relative IQR (quartile distance over median).
func runSteady(n int, seedBase uint64, seconds float64, workRoot string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	type summary struct {
		Workload string  `json:"workload"`
		Metric   string  `json:"metric"`
		N        int     `json:"n"`
		Median   float64 `json:"median"`
		Q1       float64 `json:"q1"`
		Q3       float64 `json:"q3"`
		RelIQR   float64 `json:"rel_iqr"`
	}
	var all []summary
	for _, w := range []string{"fig3-qfa-2q", "fig4-qfm-2q", daemonWorkload} {
		vals := map[string][]float64{}
		for i := 0; i < n; i++ {
			seed := seedBase + uint64(i)
			cmd := exec.Command(self, "--workload", w, "--seed", fmt.Sprint(seed),
				"--seconds", fmt.Sprint(seconds), "--trace", "0", "--workdir", workRoot)
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w, seed, err)
			}
			lines := strings.Split(strings.TrimSpace(string(out)), "\n")
			var line struct {
				Correct bool                 `json:"correct"`
				Metrics map[string]metricVal `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
				return fmt.Errorf("%s seed %d: %w", w, seed, err)
			}
			if !line.Correct {
				return fmt.Errorf("%s seed %d: outputs failed their checks", w, seed)
			}
			for k, v := range line.Metrics {
				vals[k] = append(vals[k], v.Value)
			}
			fmt.Fprintf(os.Stderr, "steady %s seed %d: %s\n", w, seed, lines[len(lines)-1])
		}
		metrics := make([]string, 0, len(vals))
		for k := range vals {
			metrics = append(metrics, k)
		}
		sort.Strings(metrics)
		fmt.Printf("%-18s %-20s %3s %12s %12s %12s %8s\n", "workload", "metric", "n", "median", "q1", "q3", "rel_iqr")
		for _, m := range metrics {
			xs := vals[m]
			q1, q3, _ := quartiles(xs)
			s := summary{w, m, len(xs), median(xs), q1, q3, relIQR(xs)}
			all = append(all, s)
			fmt.Printf("%-18s %-20s %3d %12.6g %12.6g %12.6g %8.4f\n", w, m, s.N, s.Median, s.Q1, s.Q3, s.RelIQR)
		}
	}
	line, err := json.Marshal(all)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
