// Command perfbench is the repository benchmark: it generates every input
// from a seed, drives the legalizer's packages through one workload for an
// amount of work sized by --seconds, checks every output, and prints each
// metric by name and unit.
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 99, "failed": 0, "metrics": {"alloc_mb_per_op": {"value": 5.16, "unit": "MB"}, ...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the run
// is a separate traced run over the same inputs and the metrics are the
// per-layer ones (see README.md for the definitions).
//
// Run it from the repository root through the build wrapper:
//
//	bash perfbench/run.sh --workload batch-cold --seed 1 --seconds 15 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// unitMetric is a metric's name and unit as BENCHMARK.json lists them.
type unitMetric struct{ name, unit string }

// endToEnd are the gated metrics of an untraced run, defined on every
// workload: set-up time, the share of ops that passed their checks, and
// two figures a run reproduces whatever the host does, allocation per op
// and the placements' total displacement. Time per op (CPU and wall,
// throughput, latency percentiles, goodput) is printed but not gated: the
// small VMs this runs on lend CPU to their neighbours, and that moved wall
// time per op by up to a third and CPU time per op by up to a fifth
// between identical runs (README.md).
var endToEnd = []unitMetric{
	{"setup_s", "s"},
	{"ok_frac", "fraction"},
	{"alloc_mb_per_op", "MB"},
	{"disp_sites_total", "sites"},
}

// perLayer are the metrics of a traced run. A layer the workload does not
// call reads 0.
var perLayer = []unitMetric{
	{"core.assign_s", "s"},
	{"core.build_s", "s"},
	{"core.solve_s", "s"},
	{"core.restore_s", "s"},
	{"core.warm_seeded_frac", "fraction"},
	{"lcp.iterations", "count"},
	{"lcp.us_per_iter", "us"},
	{"sparse.nnz", "count"},
	{"sparse.mb_per_iter", "MB"},
	{"par.speedup", "ratio"},
	{"tetris.s", "s"},
	{"tetris.illegal", "count"},
	{"design.checklegal_s", "s"},
	{"window.solve_s", "s"},
	{"window.windows", "count"},
	{"window.retries", "count"},
	{"window.degraded", "count"},
	{"exact.s", "s"},
	{"exact.alloc_mb", "MB"},
	{"exact.selected", "count"},
	{"exact.improved", "count"},
	{"exact.proven", "count"},
	{"exact.gap_max", "fraction"},
	{"eco.apply_s", "s"},
	{"eco.dirty_rows", "count"},
	{"eco.runs", "count"},
	{"eco.cells", "count"},
	{"eco.repaired", "count"},
	{"serve.queue_s", "s"},
	{"serve.parse_s", "s"},
	{"serve.solve_s", "s"},
	{"serve.http_s", "s"},
	{"serve.busy_frac", "fraction"},
	{"serve.cache_hit_frac", "fraction"},
	{"serve.warm_hit_frac", "fraction"},
	{"serve.warm_iters_saved", "count"},
	{"go.gc_cpu_s", "s"},
}

// runConfig is one invocation's settings.
type runConfig struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
}

// outDir holds a traced run's spans and every temporary file, inside the
// working directory the command runs from.
const outDir = ".bench_build/out"

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final JSON line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report collects a run's outcome: the human-readable lines printed ahead
// of the JSON, the op counts, every failed check, and the metric values.
type report struct {
	lines     []string
	attempted int
	failed    int
	problems  []string
	values    map[string]float64
}

func newReport() *report { return &report{values: map[string]float64{}} }

func (r *report) set(name string, v float64) { r.values[name] = v }

func (r *report) note(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

// printed reports a metric that is printed but not gated.
func (r *report) printed(name, unit string, v float64, detail string) {
	if detail != "" {
		detail += "; "
	}
	r.note("metric %-24s %14.6g %s (%snot gated)", name, v, unit, detail)
}

// fail records a failed check. Failures of single ops also count in
// r.failed; checks of the whole run only make the run incorrect.
func (r *report) fail(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	if len(r.problems) < 20 {
		r.problems = append(r.problems, msg)
	}
}

// opFailed counts one failed op and records why.
func (r *report) opFailed(format string, args ...any) {
	r.failed++
	r.fail(format, args...)
}

type workloadFunc func(cfg runConfig, r *report) error

var workloads = map[string]workloadFunc{
	"batch-cold":   runBatchCold,
	"window-exact": runWindowExact,
	"serve-mix":    runServeMix,
	"eco-stream":   runEcoStream,
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: batch-cold, window-exact, serve-mix or eco-stream")
		seed    = flag.Int64("seed", 1, "seed every input is generated from")
		seconds = flag.Float64("seconds", 15, "run length in seconds; sizes the timed work (see README.md)")
		trace   = flag.Int("trace", 0, "1 runs the separate traced run and prints per-layer metrics")
	)
	flag.Parse()
	fn, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %s), --seconds > 0 and --trace 0|1\n", strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	cfg := runConfig{
		workload: *name,
		seed:     *seed,
		seconds:  time.Duration(*seconds * float64(time.Second)),
		trace:    *trace == 1,
	}
	// Every temporary file, including the server's upload staging, goes
	// under the output directory.
	tmp, err := filepath.Abs(filepath.Join(outDir, "tmp"))
	if err == nil {
		err = os.MkdirAll(tmp, 0o755)
	}
	if err == nil {
		err = os.Setenv("TMPDIR", tmp)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}

	r := newReport()
	if err := fn(cfg, r); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		os.Exit(1)
	}
	res, err := finish(cfg, r)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		os.Exit(1)
	}
	for _, l := range r.lines {
		fmt.Println(l)
	}
	for _, p := range r.problems {
		fmt.Println("FAILED:", p)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func workloadNames() []string {
	var out []string
	for n := range workloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// finish builds the JSON result: exactly the end-to-end metrics for an
// untraced run, exactly the per-layer metrics for a traced one.
func finish(cfg runConfig, r *report) (*result, error) {
	want := endToEnd
	if cfg.trace {
		want = perLayer
	}
	res := &result{
		Correct:   r.failed == 0 && len(r.problems) == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]metricValue{},
	}
	if res.Attempted < 1 {
		return nil, fmt.Errorf("no op was attempted")
	}
	for _, m := range want {
		v, ok := r.values[m.name]
		if !ok && !cfg.trace {
			return nil, fmt.Errorf("metric %s was not measured", m.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", m.name, v)
		}
		res.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
		r.note("metric %-24s %14.6g %s", m.name, v, m.unit)
	}
	return res, nil
}

// setupRepeats is how many times a run sets its workload up; setup_s is
// the median, so one slow set-up does not move it.
const setupRepeats = 3

// repeatSetup runs setup setupRepeats times, releases all but the last
// state, and returns that state with the median set-up time in seconds.
func repeatSetup[T any](setup func() (T, error), release func(T)) (T, float64, error) {
	var (
		st    T
		times []float64
	)
	for i := 0; i < setupRepeats; i++ {
		if i > 0 {
			release(st)
		}
		t0 := time.Now()
		s, err := setup()
		if err != nil {
			var zero T
			return zero, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		st = s
	}
	return st, median(times), nil
}

// phase brackets a timed phase for the run-health record.
type phase struct {
	cpu0 cpuTimes
	ok0  bool
	u0   usage
}

func beginPhase() phase {
	t, ok := readCPUTimes()
	return phase{cpu0: t, ok0: ok, u0: readUsage()}
}

// health prints the run-health record: the environment, the GC count and
// the CPU steal share over the phase. extra carries workload-specific
// fields such as the load generator's lateness.
func (p phase) health(r *report, extra string) {
	t, ok := readCPUTimes()
	u := readUsage()
	steal := stealShare(p.cpu0, t, p.ok0, ok)
	stealText := "n/a"
	if steal >= 0 {
		stealText = fmt.Sprintf("%.4f", steal)
	}
	r.note("health gomaxprocs=%d nproc=%d go=%s gc=%d steal_frac=%s timed_wall_s=%.3f%s",
		runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version(), u.gcs-p.u0.gcs, stealText,
		u.wall.Sub(p.u0.wall).Seconds(), extra)
}

// mix derives the seed of input k from the workload seed (splitmix64), so
// every input is a pure function of (seed, k).
func mix(seed int64, k int) int64 {
	z := uint64(seed) + uint64(k+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z >> 1)
}
