// Command perfbench is the repository benchmark. One invocation runs
// one workload for a fixed measuring time, checks the program's outputs,
// and prints every metric by name with its unit; the last line of
// standard output is the machine-readable result:
//
//	bash perfbench/run.sh --workload oneshot-mysql --seed 0 --seconds 50 --trace 0
//
// Workloads, metrics and the layer-to-metric map are described in
// perfbench/README.md. With --trace 0 the run reports the end-to-end
// metrics; with --trace 1 it replays the workload's layer calls inside
// spans, reports the per-layer metrics, and writes the spans as a
// Chrome trace.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metricDef names one reported metric; the two lists below are the
// benchmark's contract and must match BENCHMARK.json (a test checks).
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"result_s", "s"},
	{"misp_reduction_pct", "%"},
	{"ipc_speedup_pct", "%"},
	{"alloc_mb", "MB"},
	{"read_p50_ms", "ms"},
	{"read_p99_ms", "ms"},
}

var perLayer = []metricDef{
	{"workload.stream_ns_per_record", "ns"},
	{"profiler.collect_s", "s"},
	{"profiler.hard_branches", "count"},
	{"profiler.shard_ms", "ms"},
	{"profiler.merge_ms", "ms"},
	{"core.train_s", "s"},
	{"core.us_per_branch_length", "us"},
	{"core.formula_evals", "count"},
	{"core.hint_yield", "ratio"},
	{"core.retrain_s", "s"},
	{"core.retrains", "count"},
	{"core.hint_predictions", "count"},
	{"cfg.assemble_s", "s"},
	{"cfg.placed_ratio", "ratio"},
	{"pipeline.baseline_s", "s"},
	{"pipeline.whisper_s", "s"},
	{"pipeline.ns_per_record", "ns"},
	{"pipeline.phase_b_ns_per_record", "ns"},
	{"pipeline.mpki_baseline", "mpki"},
	{"pipeline.mpki_whisper", "mpki"},
	{"traceio.decode_mb_s", "MB/s"},
	{"store.encode_ms", "ms"},
	{"server.drift_ms", "ms"},
	{"server.get304_us", "us"},
	{"server.get200_us", "us"},
	{"loadgen.late_p99_ms", "ms"},
	{"trace_overhead_pct", "%"},
}

// config is one invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	traceOut string
	// root is the checkout root; scratch files go under root/.bench_build.
	root  string
	scale scale
}

// scale sizes a workload. Tests shrink it; the command line always
// runs fullScale.
type scale struct {
	// records is the one-shot profiling and evaluation window (the
	// whisper CLI default).
	records int
	// flows is the minimum number of one-shot flows per run, a
	// multiple of the app's input count; the quality metrics pool
	// exactly these flows.
	flows int
	// shardRecords, shardEvery, phaseShards and pollEvery shape the
	// serve-drift traffic; a run sends as many shards as fit the
	// measuring time, at least one whole cycle of phases.
	shardRecords int
	shardEvery   time.Duration
	phaseShards  int
	pollEvery    time.Duration
	// appliesPerFlow is how many times a one-shot run times `whisper
	// apply` after each flow; readEvery and readFor shape the traced
	// run's open-loop decode probe.
	appliesPerFlow int
	readEvery      time.Duration
	readFor        time.Duration
	// setupReps and serveSetupReps are how many times set-up is
	// repeated for its median.
	setupReps      int
	serveSetupReps int
	// layerGets is how many handler calls time each GET kind.
	layerGets int
}

var fullScale = scale{
	records:        400000,
	flows:          6,
	shardRecords:   25000,
	shardEvery:     600 * time.Millisecond,
	phaseShards:    4,
	pollEvery:      10 * time.Millisecond,
	appliesPerFlow: 4,
	readEvery:      500 * time.Microsecond,
	readFor:        time.Second,
	setupReps:      51,
	serveSetupReps: 7,
	layerGets:      2000,
}

// report accumulates one run's metrics, notes and checks.
type report struct {
	values    map[string]float64
	notes     map[string]string
	attempted int
	failed    int
	problems  []string
}

func newReport() *report {
	return &report{values: make(map[string]float64), notes: make(map[string]string)}
}

// set records a metric value with an optional human note (sample
// counts, percentile actually used).
func (r *report) set(name string, v float64, note string) {
	r.values[name] = v
	if note != "" {
		r.notes[name] = note
	}
}

// ops counts attempted operations and the failed ones.
func (r *report) ops(attempted, failed int) {
	r.attempted += attempted
	r.failed += failed
}

// check counts one output check as an operation; a false ok records a
// failure with its reason.
func (r *report) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// errorf records a failure that stopped the workload.
func (r *report) errorf(format string, args ...any) {
	r.check(false, format, args...)
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultOut struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// finish prints the human report and the result line and returns
// whether the run was correct.
func (r *report) finish(w io.Writer, defs []metricDef, stamp map[string]any) bool {
	stampJSON, _ := json.Marshal(stamp)
	fmt.Fprintf(w, "# stamp %s\n", stampJSON)
	out := resultOut{Metrics: make(map[string]metricOut)}
	for _, d := range defs {
		v, ok := r.values[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			r.errorf("metric %s was not measured", d.name)
			continue
		}
		note := ""
		if n := r.notes[d.name]; n != "" {
			note = "  (" + n + ")"
		}
		fmt.Fprintf(w, "%-32s %14.6g %s%s\n", d.name, v, d.unit, note)
		out.Metrics[d.name] = metricOut{Value: v, Unit: d.unit}
	}
	extra := make([]string, 0, len(r.notes))
	for name, n := range r.notes {
		if _, isMetric := r.values[name]; !isMetric {
			extra = append(extra, fmt.Sprintf("# %s: %s", name, n))
		}
	}
	sort.Strings(extra)
	for _, line := range extra {
		fmt.Fprintln(w, line)
	}
	failedFrac := 0.0
	if r.attempted > 0 {
		failedFrac = float64(r.failed) / float64(r.attempted)
	}
	fmt.Fprintf(w, "# failed_frac %g (%d of %d operations and checks)\n", failedFrac, r.failed, r.attempted)
	for _, p := range r.problems {
		fmt.Fprintf(w, "# FAILED: %s\n", p)
	}
	out.Attempted = max(r.attempted, 1)
	out.Failed = r.failed
	out.Correct = r.failed == 0 && len(r.problems) == 0
	line, _ := json.Marshal(out)
	fmt.Fprintln(w, string(line))
	return out.Correct
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 0, "workload seed: picks the input pairs and the shard input rotation (0 = the CLI's input 0 -> 1)")
	seconds := fs.Float64("seconds", 25, "measuring time in seconds")
	traceFlag := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	traceOut := fs.String("trace-out", "", "Chrome trace file of a traced run (default .bench_build/trace-<workload>-<seed>.json)")
	commit := fs.String("commit", "", "commit stamped into the report (default: hash of the Go sources)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds > 0 and --trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		return 2
	}
	root, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	c := &config{
		workload: *workload,
		seed:     *seed,
		seconds:  *seconds,
		trace:    *traceFlag == 1,
		traceOut: *traceOut,
		root:     root,
		scale:    fullScale,
	}
	if c.traceOut == "" {
		c.traceOut = filepath.Join(root, ".bench_build", fmt.Sprintf("trace-%s-%d.json", c.workload, c.seed))
	}
	if *commit == "" {
		*commit = sourceHash(root)
	}
	stamp := map[string]any{
		"workload":   c.workload,
		"seed":       c.seed,
		"seconds":    c.seconds,
		"trace":      *traceFlag,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     *commit,
	}
	if !runWorkload(c, wl, stdout, stamp) {
		return 1
	}
	return 0
}

// runWorkload runs one workload and prints its report; it returns
// whether every check passed.
func runWorkload(c *config, wl func(*config, *report, *tracer), w io.Writer, stamp map[string]any) bool {
	rep := newReport()
	var t *tracer
	if c.trace {
		t = newTracer()
	}
	wl(c, rep, t)
	defs := endToEnd
	if c.trace {
		defs = perLayer
		if err := t.writeChrome(c.traceOut); err != nil {
			rep.errorf("writing Chrome trace: %v", err)
		} else {
			rep.notes["chrome_trace"] = c.traceOut
		}
	}
	return rep.finish(w, defs, stamp)
}

var workloads = map[string]func(*config, *report, *tracer){
	"oneshot-mysql": func(c *config, r *report, t *tracer) { runOneshot(c, r, t, "mysql", c.scale.flows) },
	"serve-drift":   runServe,
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// sourceHash identifies the code under test when no commit is given
// (the checkout the benchmark runs in need not be a git repository):
// SHA-256 over the paths and contents of every .go and go.mod file
// outside build directories.
func sourceHash(root string) string {
	h := sha256.New()
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != root {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return nil
		}
		rel, _ := filepath.Rel(root, path)
		fmt.Fprintf(h, "%s\x00%d\x00", rel, len(data))
		h.Write(data)
		return nil
	})
	return "src-" + hex.EncodeToString(h.Sum(nil))[:16]
}

// scratchDir returns a fresh directory under the checkout's build area.
func scratchDir(c *config, name string) (string, error) {
	base := filepath.Join(c.root, ".bench_build")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, name+"-")
}

// memMB returns the bytes allocated so far, in MB.
func memMB() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.TotalAlloc) / (1 << 20)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
