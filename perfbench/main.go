// Command perfbench is mobicache's end-to-end benchmark. One run drives
// one workload for a fixed number of seconds, checks every output it
// receives, and prints its metrics as a single JSON line:
//
//	go run . -root .. -workload serve-window -seed 1 -seconds 20 -trace 0
//
// Workloads:
//
//	serve-window  two in-process serve.Engines, open loop, batching path
//	serve-http    two stationd -serve processes, closed loop over HTTP
//	offline       the figures pass and repeated experiment-runner sweeps
//
// With -trace 0 the line holds the end-to-end metrics; with -trace 1 the
// run is repeated with spans recorded around every call into a layer,
// and the line holds the per-layer metrics, including the tracing
// overhead (traced minus untraced end-to-end numbers). Lines before the
// last one are a human-readable account and are not part of the result.
// See README.md for the workloads, the metrics and their bounds.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metricDef is one declared metric: its name and unit, as listed in the
// repository's BENCHMARK.json.
type metricDef struct {
	Name string
	Unit string
}

// endToEnd are the metrics a user of either product sees. Every workload
// measures every one (see README.md for each workload's definition).
var endToEnd = []metricDef{
	{"latency_p50_ms", "ms"},
	{"latency_p95_ms", "ms"},
	{"pass_s", "s"},
	{"download_units_per_req", "units/req"},
	{"mean_score", "score"},
	{"ok_ratio", "ratio"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
}

// studies are the figures pass in cmd/figures' run() order.
var studies = []string{
	"table1", "fig2", "fig3", "fig4", "fig5", "fig6", "replacement", "ablation",
	"fullsystem", "broadcast", "sleeper", "adaptive", "multicell", "estimation",
	"quasi", "heterogeneity", "faults", "resilience", "dissemination",
}

// solvers are the runner's solver dimension in runner.DefaultMatrix.
var solvers = []string{"dp", "greedy", "incremental", "certified"}

// perLayer are the single-layer metrics of the traced run. A layer a
// workload does not run reports 0 there (stationd on serve-window, the
// serve engine on offline, and so on).
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"loadgen.late_ms_p50", "ms"},
		{"loadgen.late_ms_p99", "ms"},
		{"loadgen.swamped", "flag"},
		{"loadgen.cpu_us_per_req", "us"},
		{"loadgen.fresh_ratio", "ratio"},
		{"serve.submit_ms_p50", "ms"},
		{"serve.submit_ms_p99", "ms"},
		{"serve.wait_ms_p50", "ms"},
		{"serve.window_reqs_mean", "count"},
		{"serve.windows_per_s", "1/s"},
		{"serve.dropped_windows", "count"},
		{"serve.notify_us_p99", "us"},
		{"serve.latency_p99_ms", "ms"},
		{"serve.window_us_p50", "us"},
		{"serve.window_us_p99", "us"},
		{"peers.fetch_us_p50", "us"},
		{"peers.fetch_us_p99", "us"},
		{"peers.fetches_per_window", "count"},
		{"peers.fetches_per_req", "count"},
		{"peers.hit_ratio", "ratio"},
		{"peers.failures", "count"},
		{"peers.short_circuits", "count"},
		{"basestation.download_share", "ratio"},
		{"basestation.cache_hit_ratio", "ratio"},
		{"basestation.tick_us_p50", "us"},
		{"basestation.tick_us_p99", "us"},
		{"stationd.request_ms_p50", "ms"},
		{"stationd.request_ms_p95", "ms"},
		{"stationd.updates_ms_p50", "ms"},
		{"stationd.updates_ms_p95", "ms"},
		{"stationd.cpu_us_per_req", "us"},
		{"stationd.rss_mb", "MB"},
		{"stationd.latency_p99_ms", "ms"},
		{"stationd.requests_total.request", "count"},
		{"stationd.requests_total.updates", "count"},
		{"stationd.requests_total.peer_object", "count"},
		{"experiment.figures_s", "s"},
	}
	for _, s := range studies {
		defs = append(defs, metricDef{"experiment." + s + "_s", "s"})
	}
	defs = append(defs,
		metricDef{"runner.sweep_s", "s"},
		metricDef{"runner.run_ms_p50", "ms"},
		metricDef{"runner.run_ms_p90", "ms"},
		metricDef{"runner.single_ms_sum", "ms"},
		metricDef{"runner.multicell_ms_sum", "ms"},
		metricDef{"runner.push_ms_sum", "ms"},
	)
	for _, s := range solvers {
		defs = append(defs, metricDef{"runner.solver." + s + "_ms_sum", "ms"})
	}
	return append(defs,
		metricDef{"runner.download_units_total", "units"},
		metricDef{"runner.requests_total", "count"},
		metricDef{"runtime.allocs_per_op", "count"},
		metricDef{"runtime.gc_cycles", "count"},
		metricDef{"runtime.gc_pause_ms", "ms"},
		metricDef{"trace.spans", "count"},
		metricDef{"trace.overhead.latency_p50_ms", "ms"},
		metricDef{"trace.overhead.latency_p95_ms", "ms"},
		metricDef{"trace.overhead.pass_s", "s"},
	)
}()

// options are one run's command-line settings.
type options struct {
	root     string // repository checkout the benchmark reads from
	out      string // directory for build outputs and span files
	stationd string // stationd binary (serve-http)
	workload string
	seed     uint64
	seconds  int
}

// outcome is what one execution of a workload measured.
type outcome struct {
	attempted int
	failed    int
	problems  []string
	e2e       map[string]float64
	layer     map[string]float64
	notes     []string // human-readable account lines
}

func (o *outcome) fail(n int, msg string) {
	o.failed += n
	if len(o.problems) < 10 {
		o.problems = append(o.problems, msg)
	}
}

// crossCheck compares a program counter with the benchmark's own count;
// each comparison is one attempted output check.
func crossCheck(o *outcome, what string, got, want uint64) {
	o.attempted++
	if got != want {
		o.fail(1, fmt.Sprintf("%s: counter %d, benchmark counted %d", what, got, want))
	}
}

// runtimeDelta is the Go runtime's allocation and GC activity over a phase.
type runtimeDelta struct{ mallocs, gcs, pauseNs uint64 }

func readRuntime() runtimeDelta {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return runtimeDelta{ms.Mallocs, uint64(ms.NumGC), ms.PauseTotalNs}
}

func (d runtimeDelta) since(b runtimeDelta, ops int) map[string]float64 {
	return map[string]float64{
		"runtime.allocs_per_op": ratio(float64(d.mallocs-b.mallocs), float64(ops)),
		"runtime.gc_cycles":     float64(d.gcs - b.gcs),
		"runtime.gc_pause_ms":   float64(d.pauseNs-b.pauseNs) / 1e6,
	}
}

var workloads = map[string]func(opts options, tr *tracer) (*outcome, error){
	"serve-window": runServeWindow,
	"serve-http":   runServeHTTP,
	"offline":      runOffline,
}

func main() {
	var opts options
	var trace int
	flag.StringVar(&opts.root, "root", ".", "repository checkout to benchmark")
	flag.StringVar(&opts.out, "out", ".bench_build/perfbench", "directory for span files (relative to -root)")
	flag.StringVar(&opts.stationd, "stationd", "", "stationd binary built from -root (serve-http)")
	flag.StringVar(&opts.workload, "workload", "", "serve-window, serve-http or offline")
	flag.Uint64Var(&opts.seed, "seed", 1, "workload seed: every input is drawn from it")
	flag.IntVar(&opts.seconds, "seconds", 20, "measured seconds per execution")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics; 1: traced rerun, per-layer metrics")
	flag.Parse()
	if err := run(opts, trace); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(opts options, trace int) error {
	wl, ok := workloads[opts.workload]
	if !ok {
		return fmt.Errorf("unknown -workload %q (want serve-window, serve-http or offline)", opts.workload)
	}
	if opts.seconds < 1 || trace < 0 || trace > 1 {
		return fmt.Errorf("need -seconds >= 1 and -trace 0 or 1")
	}
	if !filepath.IsAbs(opts.out) {
		opts.out = filepath.Join(opts.root, opts.out)
	}
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))

	base, err := wl(opts, nil)
	if err != nil {
		return err
	}
	res := base
	var defs []metricDef
	values := base.e2e
	if trace == 0 {
		defs = endToEnd
	} else {
		tr := newTracer()
		traced, err := wl(opts, tr)
		if err != nil {
			return err
		}
		path, err := tr.write(opts.out, fmt.Sprintf("trace-%s-s%d.jsonl", opts.workload, opts.seed))
		if err != nil {
			return fmt.Errorf("write spans: %w", err)
		}
		traced.notes = append(traced.notes, fmt.Sprintf("spans: %d written to %s", tr.len(), path))
		for _, st := range selfTimes(tr.spans) {
			traced.notes = append(traced.notes, fmt.Sprintf("span %-26s n=%-7d total=%10.1fms self=%10.1fms",
				st.Name, st.Count, st.TotalMS, st.SelfMS))
		}
		traced.layer["trace.spans"] = float64(tr.len())
		for _, m := range []string{"latency_p50_ms", "latency_p95_ms", "pass_s"} {
			traced.layer["trace.overhead."+m] = traced.e2e[m] - base.e2e[m]
		}
		// Both executions are checked; either failing fails the run.
		traced.attempted += base.attempted
		traced.failed += base.failed
		traced.problems = append(base.problems, traced.problems...)
		res = traced
		defs = perLayer
		values = traced.layer
	}

	metrics := make(map[string]any, len(defs))
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok && trace == 0 {
			return fmt.Errorf("internal: workload %s did not measure %s", opts.workload, d.Name)
		}
		metrics[d.Name] = map[string]any{"value": v, "unit": d.Unit}
	}
	printNotes(opts, res, values)
	line, err := json.Marshal(map[string]any{
		"correct":   res.failed == 0 && len(res.problems) == 0,
		"attempted": res.attempted,
		"failed":    res.failed,
		"metrics":   metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// printNotes writes the human-readable account that precedes the result.
func printNotes(opts options, res *outcome, values map[string]float64) {
	fmt.Printf("# perfbench workload=%s seed=%d seconds=%d at %s\n",
		opts.workload, opts.seed, opts.seconds, time.Now().UTC().Format(time.RFC3339))
	for _, n := range res.notes {
		fmt.Println("# " + n)
	}
	for _, p := range res.problems {
		fmt.Println("# CHECK FAILED: " + p)
	}
	names := make([]string, 0, len(values))
	for k := range values {
		names = append(names, k)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, k := range names {
		fmt.Fprintf(&b, "#   %-40s %g\n", k, values[k])
	}
	fmt.Print(b.String())
}
