// Command perfbench is the repository's benchmark. It runs one workload of
// the aging predictor, built from a seed, checks the program's outputs, and
// prints every metric by name with its unit:
//
//	bash perfbench/run.sh --workload fleet-frozen --seed 1 --seconds 20 --trace 0
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1 runs
// the same workload untraced and then again with spans recorded around the
// calls into each layer, and reports the per-layer metrics, the residual the
// layers leave unexplained and the tracing overhead. The last line of
// standard output is the result object; the line before it is the
// environment stamp. README.md explains the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	name string
	unit string
}

// endToEnd are the metrics a user of the system sees, reported by every
// workload with tracing off.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput_cps", "1/s"},
	{"ok_frac", "frac"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics of single layers, reported by every workload in a
// traced run. A layer the workload does not exercise reads 0.
var perLayer = []metricDef{
	{"p50_us", "us"},
	{"p90_us", "us"},
	{"p99_us", "us"},
	{"fleet.step_ns", "ns"},
	{"features.extract_ns", "ns"},
	{"m5p.eval_ns", "ns"},
	{"fleet.driver_ns", "ns"},
	{"fleet.cpu_util", "cpu/wall"},
	{"adapt.record_ns", "ns"},
	{"adapt.resolve_ns", "ns"},
	{"core.train_s", "s"},
	{"features.extract_all_s", "s"},
	{"m5p.fit_s", "s"},
	{"core.train_rows", "count"},
	{"adapt.retrains", "count"},
	{"core.observe_ns", "ns"},
	{"serve.encode_ns", "ns"},
	{"serve.decode_ns", "ns"},
	{"serve.client_send_ns", "ns"},
	{"serve.client_recv_ns", "ns"},
	{"serve.daemon_cpu_us_per_cp", "us/cp"},
	{"bench.cpu_us_per_cp", "us/cp"},
	{"serve.unattributed_ns", "ns"},
	{"bench.late_p99_us", "us"},
	{"bench.latency_samples", "count"},
	{"fleet.checkpoints", "count"},
	{"fleet.crashes", "count"},
	{"fleet.rejuvenations", "count"},
	{"serve.frames", "count"},
	{"serve.control_frames", "count"},
	{"bench.trace_overhead_frac", "frac"},
	{"bench.num_cpu", "count"},
	{"bench.gomaxprocs", "count"},
}

// latencyQuantiles are the latency percentiles the workloads measure. They
// are reported with the per-layer metrics, not gated as end-to-end ones: on
// the shared 2-vCPU host the figures come from they spread across seeds by
// more than the largest bound allowed (README.md).
var latencyQuantiles = []struct {
	name string
	q    float64
}{{"p50_us", 0.50}, {"p90_us", 0.90}, {"p99_us", 0.99}}

// options are the command-line settings every workload receives.
type options struct {
	seed    uint64
	seconds float64
	trace   bool
}

// buildDir holds the build outputs and the trace files, inside the checkout
// the benchmark runs from; run.sh builds into it and runs from the root.
const buildDir = ".bench_build"

// outcome is what a workload hands back: its metrics, how many operations
// it attempted and how many failed or were wrong, and the trace it recorded.
type outcome struct {
	metrics   map[string]float64
	attempted int64
	failed    int64
	problems  []string
	trace     *tracer
}

// fail records a correctness problem; failed counts the operations it spoilt.
func (o *outcome) fail(ops int64, format string, args ...any) {
	o.failed += ops
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

type workload func(opts options) (*outcome, error)

var workloads = map[string]workload{
	"fleet-frozen":   func(o options) (*outcome, error) { return runFleet(o, false) },
	"fleet-adaptive": func(o options) (*outcome, error) { return runFleet(o, true) },
	"serve-stream":   runServe,
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		name    = fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
		seed    = fs.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
		seconds = fs.Int("seconds", 10, "how long the measurement runs")
		trace   = fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: traced run with per-layer metrics")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q (know %s)", *name, strings.Join(workloadNames(), ", "))
	}
	if *seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1")
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1")
	}
	opts := options{seed: *seed, seconds: float64(*seconds), trace: *trace == 1}

	env := currentEnv()
	out, err := w(opts)
	if err != nil {
		return err
	}
	for _, p := range out.problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}

	defs := endToEnd
	if opts.trace {
		defs = perLayer
		out.metrics["bench.num_cpu"] = float64(env.NumCPU)
		out.metrics["bench.gomaxprocs"] = float64(env.GOMAXPROCS)
		path, err := out.trace.write(buildDir, *name, opts.seed, env)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "perfbench: %d spans written to %s\n", out.trace.len(), path)
	}
	if out.attempted < 1 {
		return fmt.Errorf("workload %s attempted nothing", *name)
	}
	res := result{
		Correct:   len(out.problems) == 0 && out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, d := range defs {
		res.Metrics[d.name] = metricValue{Value: out.metrics[d.name], Unit: d.unit}
		fmt.Fprintf(os.Stderr, "perfbench: %-28s %14.6g %s\n", d.name, out.metrics[d.name], d.unit)
	}
	stamp, err := json.Marshal(map[string]any{"env": env})
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(stamp))
	fmt.Println(string(line))
	return nil
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// env is the hardware and toolchain stamp printed with every result.
type env struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	CPUModel   string `json:"cpu_model"`
}

func currentEnv() env {
	return env{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		CPUModel:   cpuModel(),
	}
}
