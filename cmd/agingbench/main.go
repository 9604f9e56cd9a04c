// Command agingbench regenerates every table and figure of the paper's
// evaluation section on the simulated testbed and prints the measured values
// next to the numbers the paper reports:
//
//	Figure 1  – non-linear OS-level memory under a constant-rate leak
//	Figure 2  – OS vs JVM perspective of a periodic acquire/release pattern
//	Table 3   – experiment 4.1, deterministic aging (LinReg vs M5P)
//	Figure 3  – experiment 4.2, dynamic and variable aging
//	Table 4/Figure 4 – experiment 4.3, aging hidden in a periodic pattern
//	Figure 5  – experiment 4.4, aging caused by two resources
//
// Run all of them (a few minutes of CPU) or a single one:
//
//	agingbench -experiment all
//	agingbench -experiment 4.2 -seed 7
//
// Figure data can be dumped as CSV for plotting with -figures-dir.
//
// Beyond the paper's single-seed reproduction, the scenario engine sweeps
// whole scenario×seed matrices concurrently and reports mean ± stddev of
// every accuracy metric across seeds:
//
//	agingbench -experiment all -parallel 8 -seeds 1..8
//	agingbench -scenario bursty,trileak -seeds 1,5,9 -parallel 4
//	agingbench -list
//
// Matrix mode engages whenever -seeds, -scenario or -parallel is given; the
// registered scenarios are the four paper experiments (4.1–4.4) plus the
// extended workloads ("bursty", "trileak", "connleak", "fleet"). -list also
// shows the feature schema each scenario's models are built on, and -schema
// overrides that schema with any name from the features schema registry
// (e.g. "full+conn" to give every model the connection-speed derivatives).
package main

import (
	"context"
	"encoding/csv"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"agingpred"
	"agingpred/internal/evalx"
	"agingpred/internal/experiments"
	"agingpred/internal/features"
	"agingpred/internal/prof"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "agingbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("agingbench", flag.ContinueOnError)
	var (
		which      = fs.String("experiment", "all", "which experiment to run: all, fig1, fig2, 4.1, 4.2, 4.3 or 4.4")
		seed       = fs.Uint64("seed", 1, "random seed for the whole benchmark campaign")
		figuresDir = fs.String("figures-dir", "", "if set, write the figure series (CSV, one file per figure) into this directory")
		modelsDir  = fs.String("save-models", "", "if set, save the models experiment 4.1 trains as versioned artifacts (exp41-m5p.bin, exp41-linreg.bin) into this directory, for agingpredict/agingfleet -load (single-seed path only)")
		seeds      = fs.String("seeds", "", "matrix mode: seed sweep, \"N..M\" or comma list (e.g. 1..8)")
		scenario   = fs.String("scenario", "", "matrix mode: comma-separated scenario names, or \"all\" (default: derived from -experiment)")
		schema     = fs.String("schema", "", "feature schema overriding each experiment's default schema (see -list for the registered names)")
		parallel   = fs.Int("parallel", 0, "matrix mode: worker pool size (default: number of CPUs)")
		verbose    = fs.Bool("v", false, "matrix mode: print every cell summary, not just the aggregate table")
		jsonOut    = fs.Bool("json", false, "matrix mode: emit machine-readable JSON (cells + aggregates) on stdout")
		list       = fs.Bool("list", false, "list the registered scenarios and exit")
		cpuProfile = fs.String("cpuprofile", "", "write a CPU profile of the whole run to this file (inspect with go tool pprof)")
		memProfile = fs.String("memprofile", "", "write an end-of-run heap profile to this file (inspect with go tool pprof)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	stopProfiles, err := prof.Start(*cpuProfile, *memProfile)
	if err != nil {
		return err
	}
	defer stopProfiles()
	if *list {
		fmt.Printf("%-10s %-11s %s\n", "SCENARIO", "SCHEMA", "DESCRIPTION")
		for _, sc := range experiments.AllScenarios() {
			fmt.Printf("%-10s %-11s %s\n", sc.Name(), experiments.ScenarioSchema(sc), sc.Description())
		}
		fmt.Printf("\nregistered feature schemas: %s\n", strings.Join(features.SchemaNames(), ", "))
		return nil
	}
	if *parallel < 0 {
		return fmt.Errorf("negative -parallel %d", *parallel)
	}
	// Fail fast on an unknown schema, before any simulation runs, with the
	// list of valid names (LookupSchema's error carries it).
	if *schema != "" {
		if _, err := features.LookupSchema(*schema); err != nil {
			return fmt.Errorf("invalid -schema: %w", err)
		}
	}
	parallelSet := false
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "parallel" {
			parallelSet = true
		}
	})
	if *seeds != "" || *scenario != "" || parallelSet || *jsonOut {
		if *figuresDir != "" {
			return fmt.Errorf("-figures-dir is only supported on the single-seed path; drop -seeds/-scenario/-parallel/-json to dump figure CSVs")
		}
		if *modelsDir != "" {
			return fmt.Errorf("-save-models is only supported on the single-seed path; drop -seeds/-scenario/-parallel/-json to save model artifacts")
		}
		return runMatrix(*which, *scenario, *seeds, *schema, *seed, *parallel, *verbose, *jsonOut)
	}
	if *modelsDir != "" && *which != "all" && *which != "4.1" {
		return fmt.Errorf("-save-models saves the models experiment 4.1 trains; run it with -experiment 4.1 (or all), not %q", *which)
	}
	switch *which {
	case "all", "fig1", "fig2", "4.1", "4.2", "4.3", "4.4":
	default:
		// Scenarios beyond the paper's experiments (bursty, trileak, ...)
		// have no dedicated single-seed printer; run them as a 1×1 matrix.
		if _, err := experiments.Lookup(*which); err == nil {
			if *figuresDir != "" {
				return fmt.Errorf("-figures-dir is not supported for scenario %q; it applies to fig1/fig2 and experiments 4.1-4.4 on the single-seed path", *which)
			}
			return runMatrix(*which, "", "", *schema, *seed, 1, true, false)
		}
		return fmt.Errorf("unknown experiment %q: want all, fig1, fig2 or a registered scenario (known: %s)", *which, strings.Join(experiments.ScenarioNames(), ", "))
	}
	opts := experiments.Options{Seed: *seed, Schema: *schema}

	runAll := *which == "all"
	start := time.Now()
	if runAll || *which == "fig1" {
		if err := runFigure1(opts, *figuresDir); err != nil {
			return err
		}
	}
	if runAll || *which == "fig2" {
		if err := runFigure2(opts, *figuresDir); err != nil {
			return err
		}
	}
	if runAll || *which == "4.1" {
		if err := runExp41(opts, *modelsDir); err != nil {
			return err
		}
	}
	if runAll || *which == "4.2" {
		if err := runExp42(opts, *figuresDir); err != nil {
			return err
		}
	}
	if runAll || *which == "4.3" {
		if err := runExp43(opts, *figuresDir); err != nil {
			return err
		}
	}
	if runAll || *which == "4.4" {
		if err := runExp44(opts, *figuresDir); err != nil {
			return err
		}
	}
	fmt.Printf("\ntotal wall-clock time: %v\n", time.Since(start).Round(time.Millisecond))
	return nil
}

// runMatrix is the scenario-engine path: it resolves the scenario list and
// seed sweep, runs every cell on a worker pool, and prints the cross-seed
// aggregate statistics (human table, or machine-readable JSON with -json).
func runMatrix(which, scenario, seedsFlag, schema string, seed uint64, workers int, verbose, jsonOut bool) error {
	names := scenarioNames(which, scenario)
	for _, name := range names {
		if name == "fig1" || name == "fig2" {
			return fmt.Errorf("%s is a figure example without accuracy metrics and cannot be swept; run it on the single-seed path (-experiment %s without -seeds/-scenario/-parallel/-json)", name, name)
		}
	}
	scenarios, err := experiments.LookupAll(names)
	if err != nil {
		return err
	}
	if seedsFlag == "" {
		seedsFlag = strconv.FormatUint(seed, 10)
	}
	seedList, err := experiments.ParseSeedRange(seedsFlag)
	if err != nil {
		return err
	}
	if workers <= 0 {
		workers = runtime.NumCPU()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	// With -json stdout carries only the JSON document; progress goes to
	// stderr so pipelines stay clean.
	progress := os.Stdout
	if jsonOut {
		progress = os.Stderr
	}
	fmt.Fprintf(progress, "running %d scenarios × %d seeds on %d workers...\n", len(scenarios), len(seedList), workers)
	engine := &experiments.Engine{Opts: experiments.Options{Schema: schema}}
	res, err := engine.RunMatrix(ctx, scenarios, seedList, workers)
	if res != nil && jsonOut {
		if jerr := writeMatrixJSON(os.Stdout, res); jerr != nil {
			return jerr
		}
	}
	if res != nil && !jsonOut {
		if verbose {
			for i := range res.Cells {
				cell := &res.Cells[i]
				if cell.Err != nil {
					continue
				}
				fmt.Println("==================================================================")
				fmt.Printf("--- %s, seed %d (%v)\n%s", cell.Scenario, cell.Seed, cell.Elapsed.Round(time.Millisecond), cell.Summary)
			}
			fmt.Println("==================================================================")
		}
		fmt.Print(res.String())
		// Throughput counts only the cells that actually completed, so a
		// cancelled sweep does not inflate the rate with never-run cells.
		if done := len(res.Cells) - len(res.FailedCells()); done > 0 && res.Elapsed > 0 {
			fmt.Printf("throughput: %.2f cells/sec\n", float64(done)/res.Elapsed.Seconds())
		}
	}
	if err != nil {
		return err
	}
	if failed := res.FailedCells(); len(failed) > 0 {
		return fmt.Errorf("%d of %d cells failed", len(failed), len(res.Cells))
	}
	return nil
}

// The -json document mirrors MatrixResult with stable snake_case keys, so
// scripts parse the matrix rather than scrape the human table.
type matrixJSON struct {
	Scenarios   []string        `json:"scenarios"`
	Seeds       []uint64        `json:"seeds"`
	Workers     int             `json:"workers"`
	ElapsedSec  float64         `json:"elapsed_sec"`
	CellsPerSec float64         `json:"cells_per_sec"`
	Cells       []cellJSON      `json:"cells"`
	Aggregates  []aggregateJSON `json:"aggregates"`
}

type cellJSON struct {
	Scenario   string                  `json:"scenario"`
	Seed       uint64                  `json:"seed"`
	ElapsedSec float64                 `json:"elapsed_sec"`
	Error      string                  `json:"error,omitempty"`
	Metrics    map[string]metricReport `json:"metrics,omitempty"`
}

type metricReport struct {
	N          int     `json:"n"`
	MAESec     float64 `json:"mae_sec"`
	SMAESec    float64 `json:"smae_sec"`
	PreMAESec  float64 `json:"pre_mae_sec"`
	PostMAESec float64 `json:"post_mae_sec"`
}

type aggregateJSON struct {
	Scenario string   `json:"scenario"`
	Metric   string   `json:"metric"`
	MAE      statJSON `json:"mae"`
	SMAE     statJSON `json:"smae"`
	PreMAE   statJSON `json:"pre_mae"`
	PostMAE  statJSON `json:"post_mae"`
}

type statJSON struct {
	N         int     `json:"n"`
	MeanSec   float64 `json:"mean_sec"`
	StddevSec float64 `json:"stddev_sec"`
	MinSec    float64 `json:"min_sec"`
	MaxSec    float64 `json:"max_sec"`
}

func toStatJSON(s experiments.Stat) statJSON {
	return statJSON{N: s.N, MeanSec: s.Mean, StddevSec: s.Stddev, MinSec: s.Min, MaxSec: s.Max}
}

// writeMatrixJSON renders the whole matrix result — per-cell metrics and
// cross-seed aggregates — as one indented JSON document.
func writeMatrixJSON(w io.Writer, res *experiments.MatrixResult) error {
	doc := matrixJSON{
		Scenarios:  res.Scenarios,
		Seeds:      res.Seeds,
		Workers:    res.Workers,
		ElapsedSec: res.Elapsed.Seconds(),
		Cells:      make([]cellJSON, 0, len(res.Cells)),
		Aggregates: make([]aggregateJSON, 0, len(res.Aggregates)),
	}
	if done := len(res.Cells) - len(res.FailedCells()); done > 0 && res.Elapsed > 0 {
		doc.CellsPerSec = float64(done) / res.Elapsed.Seconds()
	}
	for i := range res.Cells {
		cell := &res.Cells[i]
		cj := cellJSON{Scenario: cell.Scenario, Seed: cell.Seed, ElapsedSec: cell.Elapsed.Seconds()}
		if cell.Err != nil {
			cj.Error = cell.Err.Error()
		} else {
			cj.Metrics = make(map[string]metricReport, len(cell.Metrics))
			for name, rep := range cell.Metrics {
				cj.Metrics[name] = metricReport{
					N: rep.N, MAESec: rep.MAE, SMAESec: rep.SMAE,
					PreMAESec: rep.PreMAE, PostMAESec: rep.PostMAE,
				}
			}
		}
		doc.Cells = append(doc.Cells, cj)
	}
	for _, agg := range res.Aggregates {
		doc.Aggregates = append(doc.Aggregates, aggregateJSON{
			Scenario: agg.Scenario,
			Metric:   agg.Metric,
			MAE:      toStatJSON(agg.MAE),
			SMAE:     toStatJSON(agg.SMAE),
			PreMAE:   toStatJSON(agg.PreMAE),
			PostMAE:  toStatJSON(agg.PostMAE),
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// scenarioNames derives the scenario list from the -scenario flag, falling
// back to -experiment ("all" means every registered scenario; the figure
// examples have no accuracy metrics and stay on the single-seed path).
func scenarioNames(which, scenario string) []string {
	raw := scenario
	if raw == "" {
		raw = which
	}
	if raw == "" || raw == "all" {
		return []string{"all"}
	}
	parts := strings.Split(raw, ",")
	for i := range parts {
		parts[i] = strings.TrimSpace(parts[i])
	}
	return parts
}

func runFigure1(opts experiments.Options, dir string) error {
	fmt.Println("==================================================================")
	res, err := experiments.Figure1(opts)
	if err != nil {
		return err
	}
	fmt.Print(res.String())
	if dir != "" {
		rows := [][]string{{"time_sec", "os_memory_mb", "jvm_heap_used_mb", "old_committed_mb"}}
		for _, p := range res.Points {
			rows = append(rows, []string{f(p.TimeSec), f(p.OSMemoryMB), f(p.JVMHeapUsedMB), f(p.OldCommittedMB)})
		}
		return writeCSV(filepath.Join(dir, "figure1.csv"), rows)
	}
	return nil
}

func runFigure2(opts experiments.Options, dir string) error {
	fmt.Println("==================================================================")
	res, err := experiments.Figure2(opts)
	if err != nil {
		return err
	}
	fmt.Print(res.String())
	if dir != "" {
		rows := [][]string{{"time_sec", "os_memory_mb", "jvm_heap_used_mb"}}
		for _, p := range res.Points {
			rows = append(rows, []string{f(p.TimeSec), f(p.OSMemoryMB), f(p.JVMHeapUsedMB)})
		}
		return writeCSV(filepath.Join(dir, "figure2.csv"), rows)
	}
	return nil
}

func runExp41(opts experiments.Options, modelsDir string) error {
	fmt.Println("==================================================================")
	res, err := experiments.Experiment41(opts)
	if err != nil {
		return err
	}
	fmt.Print(res.String())
	if modelsDir != "" {
		if err := os.MkdirAll(modelsDir, 0o755); err != nil {
			return err
		}
		for _, m := range []struct {
			name  string
			model *agingpred.Model
		}{{"exp41-m5p.bin", res.M5PModel}, {"exp41-linreg.bin", res.LinRegModel}} {
			path := filepath.Join(modelsDir, m.name)
			if err := agingpred.SaveModel(path, m.model); err != nil {
				return err
			}
			fmt.Printf("  saved %s (%s); serve it with agingpredict/agingfleet -load\n", path, m.model.Report())
		}
	}
	fmt.Println("  paper reports (Table 3):")
	paper := experiments.PaperTable3()
	for _, key := range []string{"75EBs", "150EBs"} {
		fmt.Printf("    %s:\n", key)
		for _, v := range paper[key] {
			fmt.Printf("      %-9s Lin. Reg %-16s M5P %s\n", v.Metric,
				evalx.FormatDuration(v.LinReg), evalx.FormatDuration(v.M5P))
		}
	}
	return nil
}

func runExp42(opts experiments.Options, dir string) error {
	fmt.Println("==================================================================")
	res, err := experiments.Experiment42(opts)
	if err != nil {
		return err
	}
	fmt.Print(res.String())
	fmt.Printf("  paper reports: %s\n", experiments.PaperExperiment42())
	if dir != "" {
		return writeTrace(filepath.Join(dir, "figure3.csv"), res.Trace)
	}
	return nil
}

func runExp43(opts experiments.Options, dir string) error {
	fmt.Println("==================================================================")
	res, err := experiments.Experiment43(opts)
	if err != nil {
		return err
	}
	fmt.Print(res.String())
	fmt.Println("  paper reports (Table 4):")
	for _, v := range experiments.PaperTable4() {
		fmt.Printf("      %-9s Lin. Reg %-16s M5P %s\n", v.Metric,
			evalx.FormatDuration(v.LinReg), evalx.FormatDuration(v.M5P))
	}
	if dir != "" {
		return writeTrace(filepath.Join(dir, "figure4.csv"), res.Trace)
	}
	return nil
}

func runExp44(opts experiments.Options, dir string) error {
	fmt.Println("==================================================================")
	res, err := experiments.Experiment44(opts)
	if err != nil {
		return err
	}
	fmt.Print(res.String())
	fmt.Printf("  paper reports: %s\n", experiments.PaperExperiment44())
	if dir != "" {
		return writeTrace(filepath.Join(dir, "figure5.csv"), res.Trace)
	}
	return nil
}

func writeTrace(path string, points []experiments.TracePoint) error {
	rows := [][]string{{"time_sec", "predicted_ttf_sec", "reference_ttf_sec", "tomcat_memory_mb", "heap_used_mb", "num_threads"}}
	for _, p := range points {
		rows = append(rows, []string{
			f(p.TimeSec), f(p.PredictedTTFSec), f(p.ReferenceTTFSec),
			f(p.TomcatMemoryMB), f(p.HeapUsedMB), f(p.NumThreads),
		})
	}
	return writeCSV(path, rows)
}

func writeCSV(path string, rows [][]string) (err error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	file, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := file.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	w := csv.NewWriter(file)
	if err := w.WriteAll(rows); err != nil {
		return err
	}
	w.Flush()
	fmt.Printf("  wrote %s (%d rows)\n", path, len(rows)-1)
	return w.Error()
}

func f(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
