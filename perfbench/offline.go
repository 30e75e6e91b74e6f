package main

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime/debug"
	"strings"
	"time"

	"mobicache/internal/experiment"
	"mobicache/internal/metrics"
	"mobicache/internal/runner"
)

// offline: two figures passes (Table 1 and every cmd/figures study at
// its default configuration), each followed by in-memory passes of the
// runner's default matrix, until the run's seconds are spent.
const (
	offSetups     = 5
	offFigures    = 2     // figures passes per run; pass_s is their mean
	offSweepsMin  = 2     // sweep passes after each figures pass, at least
	archiveTol    = 1e-12 // archived summaries must repeat exactly
	goldenStudies = "fig2 fig3 fig4 fig5 fig6"
)

// unrepeatable are the studies whose output is not a function of their
// configuration, so the cross-pass repeat check skips them: the ablation
// table prints each solver's wall time, and the full-system study's mean
// latency differs in the fourth decimal between two calls in one process
// (internal/network.Link ranges over a map of active transfers). The
// second is a defect of the program, recorded in README.md, not fixed by
// the benchmark.
var unrepeatable = map[string]bool{"ablation": true, "fullsystem": true}

// tables renders figures as the figures CLI's default table format.
func tables(figs ...*metrics.Figure) string {
	var b strings.Builder
	for _, f := range figs {
		b.WriteString(f.Table())
	}
	return b.String()
}

// studyFuncs are the figures pass, in cmd/figures' run() order with its
// default flags. Figures 2-6 render through experiment.GoldenFigures so
// the pass's own output is what the golden check compares.
func studyFuncs() map[string]func() (string, error) {
	golden := experiment.GoldenFigures()
	fig := func(f func() (*metrics.Figure, error)) func() (string, error) {
		return func() (string, error) {
			x, err := f()
			if err != nil {
				return "", err
			}
			return tables(x), nil
		}
	}
	return map[string]func() (string, error){
		"table1": func() (string, error) { return experiment.Table1(), nil },
		"fig2":   golden["figure2.csv"],
		"fig3":   golden["figure3.csv"],
		"fig4":   golden["figure4.csv"],
		"fig5":   golden["figure5.csv"],
		"fig6":   golden["figure6.csv"],
		"replacement": fig(func() (*metrics.Figure, error) {
			return experiment.Replacement(experiment.DefaultReplacement())
		}),
		"ablation": func() (string, error) {
			rows, err := experiment.SolverAblation(1, 2500)
			if err != nil {
				return "", err
			}
			return experiment.RenderSolverAblation(rows), nil
		},
		"fullsystem": func() (string, error) {
			a, b, err := experiment.FullSystemStudy(experiment.DefaultFullSystemStudy())
			if err != nil {
				return "", err
			}
			return tables(a, b), nil
		},
		"broadcast": fig(func() (*metrics.Figure, error) {
			return experiment.BroadcastStudy(experiment.DefaultBroadcastStudy())
		}),
		"sleeper": fig(func() (*metrics.Figure, error) {
			return experiment.SleeperStudy(experiment.DefaultSleeperStudy())
		}),
		"adaptive": fig(func() (*metrics.Figure, error) {
			return experiment.AdaptiveStudy(experiment.DefaultAdaptiveStudy())
		}),
		"multicell": func() (string, error) { return experiment.MulticellStudy(4, 1, 0) },
		"estimation": fig(func() (*metrics.Figure, error) {
			return experiment.EstimationStudy(experiment.DefaultEstimationStudy())
		}),
		"quasi": fig(func() (*metrics.Figure, error) {
			return experiment.QuasiStudy(experiment.DefaultQuasiStudy())
		}),
		"heterogeneity": fig(func() (*metrics.Figure, error) {
			return experiment.HeterogeneityStudy(experiment.DefaultHeterogeneityStudy())
		}),
		"faults": fig(func() (*metrics.Figure, error) {
			return experiment.FaultStudy(experiment.DefaultFaultStudy())
		}),
		"resilience": func() (string, error) { return experiment.ResilienceStudy(4, 1, 0) },
		"dissemination": func() (string, error) {
			f, _, err := experiment.DisseminationStudy(experiment.DefaultDisseminationStudy())
			if err != nil {
				return "", err
			}
			return tables(f), nil
		},
	}
}

// offlineInputs is what set-up loads: the archived sweep and goldens the
// checks compare against, and the expanded matrices.
type offlineInputs struct {
	manifest runner.Manifest
	archived []runner.Summary
	goldens  map[string][]byte
	combos   []runner.Combo
	archive  []runner.Combo
}

func loadOffline(root string) (*offlineInputs, error) {
	in := &offlineInputs{goldens: map[string][]byte{}}
	runs := filepath.Join(root, "results", "runs")
	var err error
	if in.manifest, err = runner.LoadManifest(runs); err != nil {
		return nil, err
	}
	var corrupt []error
	if in.archived, corrupt, err = runner.LoadSweep(runs); err != nil {
		return nil, err
	}
	if len(corrupt) > 0 {
		return nil, fmt.Errorf("archived sweep: %d corrupt runs, first: %w", len(corrupt), corrupt[0])
	}
	for _, s := range strings.Fields(goldenStudies) {
		name := "figure" + strings.TrimPrefix(s, "fig") + ".csv"
		if in.goldens[name], err = os.ReadFile(filepath.Join(root, "results", "golden", name)); err != nil {
			return nil, err
		}
	}
	if in.combos, err = runner.DefaultMatrix().Expand(); err != nil {
		return nil, err
	}
	if in.archive, err = in.manifest.Matrix.Expand(); err != nil {
		return nil, err
	}
	return in, nil
}

// sweepPass is one in-memory pass over the default matrix.
type sweepPass struct {
	wall    time.Duration
	runMS   sample
	groupMS map[string]float64 // per-pass sums by run kind and solver
}

// runKey is what a repeated run must reproduce bit-exact.
type runKey struct {
	summary runner.Summary
	ticks   string
}

func runOffline(opts options, tr *tracer) (*outcome, error) {
	var setups sample
	var in *offlineInputs
	for k := 0; k < offSetups; k++ {
		start := time.Now()
		var err error
		if in, err = loadOffline(opts.root); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups.addDur(time.Since(start))
	}
	if err := experiment.SetSolverName("dp"); err != nil {
		return nil, err
	}
	o := &outcome{e2e: map[string]float64{}, layer: map[string]float64{}}
	rt0 := readRuntime()
	begin := time.Now()

	// Figures passes alternate with sweep passes, so both sample the
	// whole run: figures, sweeps to the run's midpoint, figures, sweeps
	// to its end. Each phase gets at least offSweepsMin sweep passes.
	funcs := studyFuncs()
	fixed := runner.Fixed{Seed: opts.seed}.WithDefaults()
	budget := time.Duration(opts.seconds) * time.Second
	var figWalls sample
	studyTimes := map[string]sample{}
	var outputs map[string]string
	var passes []sweepPass
	var first []runKey
	// Every run must repeat bit-exact across passes: the first pass's
	// results are kept and each later run is compared as it finishes.
	check := func(i int, r *runner.RunResult) {
		k := runKey{r.Summary, string(r.TicksCSV)}
		if len(first) < len(in.combos) {
			first = append(first, k)
			return
		}
		if !reflect.DeepEqual(k, first[i]) {
			o.fail(1, fmt.Sprintf("run %s did not repeat across passes", r.Config.ID))
		}
	}
	for f := 0; f < offFigures; f++ {
		// Each phase starts from a heap returned to the OS, so peak RSS is
		// the larger of the two phases' peaks (the figures pass's is the
		// ablation's FPTAS tables), not an accident of their overlap.
		debug.FreeOSMemory()
		wall, times, outs := figuresPass(funcs, tr, o)
		figWalls.addDur(wall)
		for k, v := range times {
			studyTimes[k] = append(studyTimes[k], v)
		}
		if outputs == nil {
			outputs = outs
		}
		for _, name := range studies {
			if unrepeatable[name] {
				continue
			}
			if outs[name] != outputs[name] {
				o.fail(1, fmt.Sprintf("study %s: output differs between figures passes", name))
			}
		}
		debug.FreeOSMemory()
		until := budget * time.Duration(f+1) / offFigures
		for n := 0; n < offSweepsMin || time.Since(begin) < until; n++ {
			p, err := sweep(in.combos, fixed, tr, check)
			if err != nil {
				return nil, err
			}
			o.attempted += len(in.combos)
			passes = append(passes, p)
		}
	}
	rt := readRuntime().since(rt0, len(passes)*len(in.combos))

	// Figures 2-6 against the goldens, from the pass's own renders.
	renders := map[string]func() (string, error){}
	for _, s := range strings.Fields(goldenStudies) {
		out := outputs[s]
		renders["figure"+strings.TrimPrefix(s, "fig")+".csv"] = func() (string, error) { return out, nil }
	}
	o.attempted += len(renders)
	for _, v := range runner.CheckGolden(filepath.Join(opts.root, "results", "golden"), renders) {
		o.fail(1, v.String())
	}

	// The archived on-demand sweep repeats exactly.
	var current []runner.Summary
	for _, c := range in.archive {
		r, err := runner.Execute(c, in.manifest.Fixed)
		o.attempted++
		if err != nil {
			o.fail(1, fmt.Sprintf("archived combo %s: %v", c.ID(in.manifest.Fixed.Seed), err))
			continue
		}
		current = append(current, r.Summary)
	}
	for _, v := range runner.CheckSummaries(current, in.archived, archiveTol) {
		o.fail(1, v.String())
	}
	if len(current) != len(in.archived) {
		o.fail(1, fmt.Sprintf("archived sweep has %d runs, re-executed %d", len(in.archived), len(current)))
	}

	// Accounting over one pass (every pass is identical, checked above).
	var requests, units, scoreSum float64
	for _, k := range first {
		m := k.summary.Metrics
		u, ok := m["download_units"]
		if !ok {
			u = m["downloads"] // multicell runs: unit-size objects
		}
		requests += m["requests"]
		units += u
		scoreSum += m["mean_score"] * m["requests"]
	}
	var all, walls sample
	group := map[string]sample{}
	for _, p := range passes {
		all = append(all, p.runMS...)
		walls.addDur(p.wall)
		for k, v := range p.groupMS {
			group[k] = append(group[k], v)
		}
	}
	rss, err := procStatusMB(os.Getpid(), "VmHWM")
	if err != nil {
		return nil, err
	}
	lp95, _ := tail(all.sorted(), 0.95)
	o.e2e = map[string]float64{
		"latency_p50_ms":         all.median(),
		"latency_p95_ms":         lp95,
		"pass_s":                 figWalls.median(),
		"download_units_per_req": ratio(units, requests),
		"mean_score":             ratio(scoreSum, requests),
		"ok_ratio":               ratio(float64(o.attempted-o.failed), float64(o.attempted)),
		"setup_s":                setups.median(),
		"peak_rss_mb":            rss,
	}
	l := o.layer
	for k, v := range rt {
		l[k] = v
	}
	l["experiment.figures_s"] = figWalls.median()
	for k, v := range studyTimes {
		l["experiment."+k+"_s"] = v.median()
	}
	l["runner.sweep_s"] = walls.median()
	l["runner.run_ms_p50"] = all.median()
	l["runner.run_ms_p90"] = all.q(0.90)
	for k, v := range group {
		l["runner."+k+"_ms_sum"] = v.median()
	}
	l["runner.download_units_total"] = units
	l["runner.requests_total"] = requests
	o.notes = append(o.notes,
		fmt.Sprintf("figures passes %.2fs and %.2fs over %d studies; %d sweep passes x %d runs (median %.3fs)",
			figWalls[0], figWalls[1], len(studies), len(passes), len(in.combos), walls.median()),
		fmt.Sprintf("run latency samples %d (p95 has %d beyond it); archived sweep re-executed: %d runs",
			all.len(), all.len()/20, len(current)),
	)
	return o, nil
}

// figuresPass runs every study once in cmd/figures' order and returns
// the pass's wall time, each study's time and each study's output.
func figuresPass(funcs map[string]func() (string, error), tr *tracer, o *outcome) (time.Duration, map[string]float64, map[string]string) {
	times := map[string]float64{}
	outputs := map[string]string{}
	root := tr.reserve("figures.pass", 0)
	start := time.Now()
	for _, name := range studies {
		s := time.Now()
		out, err := funcs[name]()
		e := time.Now()
		tr.record("experiment."+name, root, -1, s, e)
		times[name] = e.Sub(s).Seconds()
		o.attempted++
		if err != nil {
			o.fail(1, fmt.Sprintf("study %s: %v", name, err))
		}
		outputs[name] = out
	}
	wall := time.Since(start)
	tr.finish(root, start, start.Add(wall))
	return wall, times, outputs
}

// sweep executes every combination once, in memory (no archive writes),
// handing each result to check.
func sweep(combos []runner.Combo, fixed runner.Fixed, tr *tracer, check func(int, *runner.RunResult)) (sweepPass, error) {
	p := sweepPass{groupMS: map[string]float64{}}
	root := tr.reserve("runner.pass", 0)
	start := time.Now()
	for i, c := range combos {
		s := time.Now()
		r, err := runner.Execute(c, fixed)
		e := time.Now()
		if err != nil {
			return p, fmt.Errorf("runner %s: %w", c.ID(fixed.Seed), err)
		}
		tr.record("runner.Execute", root, int64(i), s, e)
		ms := e.Sub(s).Seconds() * 1e3
		p.runMS.add(ms)
		check(i, r)
		kind := "single"
		switch {
		case c.Policy != "" && c.Policy != "on-demand":
			kind = "push"
		case c.Cells > 1:
			kind = "multicell"
		}
		p.groupMS[kind] += ms
		p.groupMS["solver."+c.Solver] += ms
	}
	p.wall = time.Since(start)
	tr.finish(root, start, start.Add(p.wall))
	return p, nil
}
