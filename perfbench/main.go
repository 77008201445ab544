// Command perfbench is the repository's end-to-end benchmark. It drives
// the simulator, the sweep engine and the whirld HTTP API from outside,
// through their public Go functions and endpoints, on three workloads:
//
//	sweep-warm   app x scheme grid plus one mix, replayed from a filled trace cache
//	sweep-cold   every built-in app x snuca-lru, from an empty trace cache
//	serve-mixed  an in-process whirld under an open-loop read/resubmit/write mix
//
// Every run checks its outputs: sweep cells against the committed golden
// rows (golden/), served rows against the rows the store was filled with.
// With -trace 0 it prints the end-to-end metrics; with -trace 1 it runs
// the same workload traced and prints the per-layer metrics. The last
// line of stdout is one JSON object:
//
//	{"correct": true, "attempted": 54, "failed": 0, "metrics": {"setup_s": {"value": 1.2, "unit": "s"}, ...}}
//
// Run it through run.sh, which builds it from the checkout first:
//
//	bash perfbench/run.sh --workload sweep-warm --seed 1 --seconds 30 --trace 0
//
// README.md records why each workload exists and which layer metric
// should move which end-to-end metric.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// defaultSeed is the seed the committed golden rows were generated for
// when -seed is not given.
const defaultSeed = 1

// metric is one named, unit-carrying measurement.
type metric struct {
	Name  string
	Unit  string
	Value float64
}

// droppedMetric names a metric the issue asked for that this run does
// not print, with the reason.
type droppedMetric struct {
	Name   string
	Reason string
}

// result is everything one run reports.
type result struct {
	Workload  string
	Attempted int
	Failed    int
	Metrics   []metric
	Dropped   []droppedMetric
	// Notes are human-readable lines printed before the JSON result:
	// row digests, sample counts, error rates.
	Notes []string
	// DroppedSpans counts spans a traced run emitted but lost.
	DroppedSpans int
}

func (r *result) add(name, unit string, v float64) {
	r.Metrics = append(r.Metrics, metric{Name: name, Unit: unit, Value: v})
}

func (r *result) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

func (r *result) drop(name, reason string) {
	r.Dropped = append(r.Dropped, droppedMetric{Name: name, Reason: reason})
}

// options are one run's parameters, parsed from the command line.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	traced   bool
	// workdir holds every file the run writes (trace caches, stores,
	// span dumps); each run uses its own subdirectory and removes it.
	workdir string
	// goldenDir holds the committed golden rows.
	goldenDir string
	// size selects the workload dimensions: "full" for benchmark runs,
	// "tiny" for the self-tests.
	size string
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses args, runs one workload and prints its result. It returns
// the process exit code: 0 whenever a result was printed (correct or
// not), 2 on bad arguments, 1 when the workload could not run at all.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	fs.Uint64Var(&o.seed, "seed", defaultSeed, "workload seed (sweeps: the harness seed; serving: arrivals, queries and write seeds)")
	fs.Float64Var(&o.seconds, "seconds", 30, "measurement time in seconds")
	traceFlag := fs.Int("trace", 0, "1 runs the traced pass and prints per-layer metrics")
	fs.StringVar(&o.workdir, "workdir", ".bench_build/perfbench-work", "directory for the run's scratch files")
	fs.StringVar(&o.goldenDir, "golden", "perfbench/golden", "directory of the committed golden rows")
	fs.StringVar(&o.size, "size", "full", "workload dimensions: full or tiny (self-tests)")
	writeGolden := fs.String("write-golden", "", "regenerate the golden rows for this comma-separated seed list and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintf(stderr, "perfbench: -trace must be 0 or 1, got %d\n", *traceFlag)
		return 2
	}
	o.traced = *traceFlag == 1
	if o.seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: -seconds must be positive\n")
		return 2
	}
	if *writeGolden != "" {
		if err := regenerateGolden(o, *writeGolden, stderr); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		return 0
	}
	wl, ok := workloadByName(o.workload)
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (valid: %s)\n", o.workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	res, err := runWorkload(wl, o)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}
	if err := printResult(stdout, res, machineRecord(), o); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

// runWorkload runs wl in a fresh subdirectory of o.workdir and removes
// the subdirectory afterwards.
func runWorkload(wl workload, o options) (*result, error) {
	if _, err := os.Stat(o.goldenDir); err != nil {
		return nil, fmt.Errorf("golden rows: %w", err)
	}
	dir := filepath.Join(o.workdir, fmt.Sprintf("%s-%d-%d", wl.name, o.seed, os.Getpid()))
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	start, steal := time.Now(), stealSeconds()
	res, err := wl.run(o, dir)
	if err != nil {
		return nil, err
	}
	res.Workload = wl.name
	if res.Attempted < 1 {
		return nil, errors.New("no operation was attempted")
	}
	res.note("run wall_s=%.3f host_steal_s=%.2f", time.Since(start).Seconds(), stealSeconds()-steal)
	return res, nil
}

// workload is one named benchmark workload.
type workload struct {
	name string
	run  func(o options, dir string) (*result, error)
}

func allWorkloads() []workload {
	return []workload{
		{name: "sweep-warm", run: func(o options, dir string) (*result, error) { return runSweep(warmGrid(o.size), o, dir) }},
		{name: "sweep-cold", run: func(o options, dir string) (*result, error) { return runSweep(coldGrid(o.size), o, dir) }},
		{name: "serve-mixed", run: runServe},
	}
}

func workloadNames() []string {
	var out []string
	for _, w := range allWorkloads() {
		out = append(out, w.name)
	}
	return out
}

func workloadByName(name string) (workload, bool) {
	for _, w := range allWorkloads() {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// printResult writes the machine record, the notes, the dropped-metric
// list and, last, the JSON result line.
func printResult(w io.Writer, res *result, m map[string]any, o options) error {
	mj, err := json.Marshal(m)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "machine %s\n", mj)
	fmt.Fprintf(w, "run workload=%s seed=%d seconds=%s trace=%t size=%s\n",
		res.Workload, o.seed, strconv.FormatFloat(o.seconds, 'f', -1, 64), o.traced, o.size)
	for _, n := range res.Notes {
		fmt.Fprintf(w, "note %s\n", n)
	}
	errRate := float64(res.Failed) / float64(res.Attempted)
	fmt.Fprintf(w, "error_rate %g (%d of %d operations failed)\n", errRate, res.Failed, res.Attempted)
	for _, d := range res.Dropped {
		fmt.Fprintf(w, "dropped %s: %s\n", d.Name, d.Reason)
	}
	metrics := make(map[string]any, len(res.Metrics))
	for _, mt := range res.Metrics {
		if _, dup := metrics[mt.Name]; dup {
			return fmt.Errorf("metric %s reported twice", mt.Name)
		}
		metrics[mt.Name] = map[string]any{"value": mt.Value, "unit": mt.Unit}
	}
	line, err := json.Marshal(map[string]any{
		"correct":   res.Failed == 0,
		"attempted": res.Attempted,
		"failed":    res.Failed,
		"metrics":   metrics,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
