// Command perfbench is the repository's benchmark. It drives the layers of
// the compile → execute → cache-simulate pipeline through their public
// functions on one of three workloads, checks every op against references
// the code under test did not produce, and prints one JSON result as the
// last line of standard output. Run it from the repository root:
//
//	bash perfbench/run.sh --workload paper-sim --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics; with --trace 1
// the run records spans around every layer call and reports the per-layer
// metrics instead. See README.md for the workloads and the metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/codegen"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/vm"
)

// metricSpec names one reported metric. The two tables below are the
// metric lists of BENCHMARK.json; TestMetricTablesMatchBenchmarkJSON keeps
// them in step.
type metricSpec struct {
	Name, Unit, Better string
}

var endToEnd = []metricSpec{
	{"ops_per_s", "1/s", "higher"},
	{"op_p50_ms", "ms", "lower"},
	{"op_p90_ms", "ms", "lower"},
	{"setup_s", "s", "lower"},
	{"live_heap_mb", "MB", "lower"},
	{"alloc_mb_per_op", "MB", "lower"},
}

var perLayer = []metricSpec{
	{"core.ms_per_op", "ms", "lower"},
	{"vm.ms_per_op", "ms", "lower"},
	{"core.self_pct", "%", "lower"},
	{"codegen.self_pct", "%", "lower"},
	{"vm.self_pct", "%", "lower"},
	{"replay.encode_pct", "%", "lower"},
	{"replay.self_pct", "%", "lower"},
	{"check.self_pct", "%", "lower"},
	{"exact.self_pct", "%", "lower"},
	{"vm.instructions_per_op", "count", "lower"},
	{"vm.minstr_per_s", "Minstr/s", "higher"},
	{"vm.alloc_mb_per_run", "MB", "lower"},
	{"replay.bytes_per_ref", "B/ref", "lower"},
	{"replay.mrefs_per_s", "Mref/s", "higher"},
	{"exact.steps_per_op", "count", "lower"},
	{"exact.peak_width", "count", "lower"},
	{"exact.exhausted_pct", "%", "lower"},
	{"exact.decided_pct", "%", "higher"},
	{"serve.queue_pct", "%", "lower"},
	{"serve.compile_pct", "%", "lower"},
	{"serve.sim_pct", "%", "lower"},
	{"serve.check_pct", "%", "lower"},
	{"serve.http_pct", "%", "lower"},
	{"serve.deduped_pct", "%", "higher"},
	{"serve.degraded_pct", "%", "lower"},
	{"serve.batch_coalesced", "count", "higher"},
	{"serve.batch_grouped", "count", "higher"},
	{"artifact.build_hit_pct", "%", "higher"},
	{"artifact.run_hit_pct", "%", "higher"},
	{"loadgen.late_pct", "%", "lower"},
	{"trace.ops_per_s", "1/s", "higher"},
}

// setupReps is how many times a run sets its workload up; setup_s is the
// median, so one slow set-up does not move it.
const setupReps = 3

// workload is one named set of inputs.
type workload struct {
	name  string
	setup func(p params) (instance, error)
}

// params are the run's settings a workload's set-up reads.
type params struct {
	seed     int64
	seconds  float64
	rate     float64 // serve-mixed slots per second
	openLoop bool    // serve-mixed: open loop instead of paced slots
}

var workloads = []workload{
	{"paper-sim", setupPaperSim},
	{"progen-analyze", setupProgenAnalyze},
	{"serve-mixed", setupServeMixed},
}

// instance is a set-up workload.
type instance interface {
	// run is the measured phase. It returns the per-op latencies and
	// everything verify and the metric computations need.
	run(seconds float64, tr *tracer) (*outcome, error)
	// verify checks the outcome's results against the references, outside
	// the timed region, and returns the number of wrong ops.
	verify(o *outcome) int64
	// layers fills the per-layer metrics of a traced run.
	layers(o *outcome, spans []span, m map[string]float64)
	close()
}

// outcome is what the measured phase produced.
type outcome struct {
	attempted int64     // ops started
	failed    int64     // ops that returned an error or were refused
	lat       []float64 // latency of each completed op, ms
	elapsed   float64   // the time ops_per_s divides by, s
	results   any       // workload-specific, for verify and layers
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	if err := benchMain(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func benchMain(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: paper-sim, progen-analyze or serve-mixed")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 20, "length of the measured phase")
	traceOn := fs.Int("trace", 0, "1: record spans and report per-layer metrics")
	commit := fs.String("commit", "unknown", "commit being measured, for the run header")
	spansDir := fs.String("spans-dir", "", "with --trace 1, write the spans as JSON lines here")
	rate := fs.Float64("rate", serveRate, "serve-mixed: slots per second")
	openLoop := fs.Bool("open-loop", false, "serve-mixed: send every slot when due and time requests in wall time")
	if err := fs.Parse(args); err != nil {
		return err
	}
	i := slices.IndexFunc(workloads, func(w workload) bool { return w.name == *name })
	if i < 0 {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *seconds <= 0 || *rate <= 0 || (*traceOn != 0 && *traceOn != 1) {
		return fmt.Errorf("need --seconds > 0, --rate > 0 and --trace 0 or 1")
	}
	w := workloads[i]

	// Set up several times and keep the last; setup_s is the median, in
	// process CPU time for the reason runPasses gives.
	var inst instance
	var setups []float64
	for r := 0; r < setupReps; r++ {
		if inst != nil {
			inst.close()
			inst = nil
		}
		runtime.GC()
		c := cpuSeconds()
		var err error
		if inst, err = w.setup(params{seed: *seed, seconds: *seconds, rate: *rate, openLoop: *openLoop}); err != nil {
			return fmt.Errorf("%s set-up: %w", w.name, err)
		}
		setups = append(setups, cpuSeconds()-c)
	}
	defer inst.close()

	tr := newTracer(*traceOn == 1)
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	t0, cpu0, steal0 := now(), cpuSeconds(), stealTicks()
	o, err := inst.run(*seconds, tr)
	wall, cpu := now().Sub(t0).Seconds(), cpuSeconds()-cpu0
	steal := float64(stealTicks()-steal0) / 100 // USER_HZ
	if err != nil {
		return fmt.Errorf("%s: %w", w.name, err)
	}
	runtime.ReadMemStats(&ms1)
	runtime.GC()
	var live runtime.MemStats
	runtime.ReadMemStats(&live)

	if o.attempted == 0 {
		return fmt.Errorf("%s: the measured phase ran no ops", w.name)
	}
	wrong := inst.verify(o)
	res := result{Attempted: o.attempted, Failed: o.failed + wrong, Metrics: map[string]metric{}}
	res.Correct = res.Failed == 0

	lat := summarize(o.lat, 0.9)
	values := map[string]float64{}
	specs := endToEnd
	if tr.on {
		specs = perLayer
		inst.layers(o, tr.spans, values)
		values["trace.ops_per_s"] = float64(len(o.lat)) / o.elapsed
		if *spansDir != "" {
			if err := writeSpans(*spansDir, fmt.Sprintf("%s-%d.jsonl", w.name, *seed), tr.spans); err != nil {
				return err
			}
		}
	} else {
		values["ops_per_s"] = float64(len(o.lat)) / o.elapsed
		values["op_p50_ms"] = lat.P50
		values["op_p90_ms"] = lat.Tail
		values["setup_s"] = median(setups)
		values["live_heap_mb"] = float64(live.HeapAlloc) / 1e6
		values["alloc_mb_per_op"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1e6 / float64(max(len(o.lat), 1))
	}
	for _, s := range specs {
		res.Metrics[s.Name] = metric{Value: values[s.Name], Unit: s.Unit}
	}

	// The run header: the machine and the run's parameters.
	hdr := map[string]any{
		"workload": w.name, "seed": *seed, "seconds": *seconds, "trace": *traceOn, "commit": *commit,
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(), "cpu": cpuModel(),
		"ops": lat.N, "tail_q": lat.TailQ, "setup_runs_s": setups, "cpu_s": cpu, "wall_s": wall,
		"steal_pct": pct(steal, wall*float64(runtime.NumCPU())),
	}
	if w.name == "serve-mixed" {
		hdr["rate"], hdr["open_loop"] = *rate, *openLoop
	}
	printSummary(stderr, w.name, specs, values, lat, res)
	hb, err := json.Marshal(map[string]any{"run_header": hdr})
	if err != nil {
		return err
	}
	rb, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n%s\n", hb, rb)
	return err
}

// cpuSeconds is the process's user and system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// stealTicks is the machine's CPU time taken by the hypervisor, in
// USER_HZ ticks, from the first line of /proc/stat; 0 where unavailable.
func stealTicks() int64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	n, _ := strconv.ParseInt(f[8], 10, 64)
	return n
}

// cpuModel is the processor's model name, or "unknown".
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func printSummary(w io.Writer, name string, specs []metricSpec, values map[string]float64, lat latencySummary, res result) {
	fmt.Fprintf(w, "%s: %d ops attempted, %d failed; tail percentile p%.0f of %d samples\n",
		name, res.Attempted, res.Failed, 100*lat.TailQ, lat.N)
	for _, s := range specs {
		fmt.Fprintf(w, "  %-24s %14.4f %s\n", s.Name, values[s.Name], s.Unit)
	}
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// runPasses calls op over n inputs in whole passes until at least seconds
// of wall time have passed. It returns the process CPU time of each op in
// ms and of all of them in seconds. op receives the input index and a
// run-wide op id.
//
// Batch ops are timed in CPU time, not wall time: on a shared virtual
// machine the hypervisor takes the CPU away for a share of the wall clock
// that drifts from minute to minute (steal time, measured at up to 30 %),
// and that share would move every wall-clock figure. Process
// CPU time excludes it and still counts the garbage collector's work on
// other threads.
func runPasses(n int, seconds float64, op func(i int, id int64)) (lat []float64, cpu float64) {
	deadline := now().Add(time.Duration(seconds * float64(time.Second)))
	var id int64
	for pass := 0; pass == 0 || now().Before(deadline); pass++ {
		for i := 0; i < n; i++ {
			c := cpuSeconds()
			op(i, id)
			d := cpuSeconds() - c
			lat = append(lat, d*1e3)
			cpu += d
			id++
		}
	}
	return lat, cpu
}

// buildProgram compiles src and generates its machine code.
func buildProgram(src string, cfg core.Config) (*isa.Program, error) {
	comp, err := core.Compile(src, cfg)
	if err != nil {
		return nil, err
	}
	return codegen.Generate(comp)
}

// allocPerRun is the mean MB one vm.Run allocates over the programs,
// measured outside the ops.
func allocPerRun(progs []progenProgram, ccfg core.Config, vcfg vm.Config) float64 {
	var alloc float64
	for _, p := range progs {
		prog, err := buildProgram(p.src, ccfg)
		if err != nil {
			continue // the ops already reported it
		}
		a, _ := probeRun(prog, vcfg)
		alloc += a
	}
	return alloc / float64(len(progs))
}

// probeRun runs prog once and returns the MB it allocated and its time
// in ns.
func probeRun(prog *isa.Program, cfg vm.Config) (mb, ns float64) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	t := now()
	_, _ = vm.Run(prog, cfg) // the ops already checked this program's runs
	ns = float64(now().Sub(t).Nanoseconds())
	runtime.ReadMemStats(&b)
	return float64(b.TotalAlloc-a.TotalAlloc) / 1e6, ns
}

// opTime is the summed duration of the op spans.
func opTime(spans []span) int64 {
	var t int64
	for _, s := range spans {
		if s.Name == "op" {
			t += s.End - s.Start
		}
	}
	return t
}
