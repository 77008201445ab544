package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"whirlpool/internal/experiments"
	"whirlpool/internal/obs"
	"whirlpool/internal/schemes"
	"whirlpool/internal/workloads"
)

// sweepGrid is one sweep workload's grid.
type sweepGrid struct {
	name  string
	apps  []string
	mixes []experiments.SweepMix
	kinds []schemes.Kind
	scale float64
	// warm grids replay from a trace cache set-up filled; cold grids
	// start every sweep from an empty one.
	warm bool
	// kernels marks a grid that runs every scheme and a mix; the traced
	// kernel pass of any other grid runs on the sweep-warm grid.
	kernels bool
}

// warmReps is how many times sweep-warm fills its trace cache; setup_s
// is the median.
const warmReps = 5

// warmGrid is sweep-warm: the paper's cases under all six schemes plus
// one two-app mix. Whirlpool differs from Jigsaw on delaunay, MIS, mcf
// and omnet; lbm and libqntm are bypass cases; cactus and xalanc are
// flat. The mix is two apps so that its six long cells (which one
// worker runs as a batch) stay under half of the grid's wall time, and
// the scale is small enough that a 30 s run holds about ten sweeps,
// whose median is steadier on a shared machine than that of five.
func warmGrid(size string) sweepGrid {
	g := sweepGrid{
		name:    "sweep-warm",
		apps:    []string{"delaunay", "MIS", "mcf", "omnet", "lbm", "libqntm", "cactus", "xalanc"},
		mixes:   []experiments.SweepMix{{Name: "mix-omnet-delaunay", Apps: []string{"omnet", "delaunay"}}},
		kinds:   schemes.PaperKinds(),
		scale:   0.05,
		warm:    true,
		kernels: true,
	}
	if size == "tiny" {
		g.apps, g.scale = g.apps[:2], 0.005
	}
	return g
}

// coldGrid is sweep-cold: every built-in single-thread app under
// snuca-lru, each sweep from an empty trace cache and a fresh harness.
func coldGrid(size string) sweepGrid {
	g := sweepGrid{
		name:  "sweep-cold",
		apps:  workloads.BuiltinNames(),
		kinds: []schemes.Kind{schemes.KindSNUCALRU},
		scale: 0.1,
	}
	if size == "tiny" {
		g.apps, g.scale = g.apps[:4], 0.005
	}
	return g
}

func (g sweepGrid) config(tr *obs.Tracer) experiments.SweepConfig {
	return experiments.SweepConfig{
		Apps:    g.apps,
		Mixes:   g.mixes,
		Kinds:   g.kinds,
		Workers: workers(),
		Tracer:  tr,
	}
}

// cells is the grid's cell count.
func (g sweepGrid) cells() int { return (len(g.apps) + len(g.mixes)) * len(g.kinds) }

// traceApps lists every app whose trace the grid replays, sorted.
func (g sweepGrid) traceApps() []string {
	seen := map[string]bool{}
	var out []string
	add := func(a string) {
		if !seen[a] {
			seen[a] = true
			out = append(out, a)
		}
	}
	for _, a := range g.apps {
		add(a)
	}
	for _, m := range g.mixes {
		for _, a := range m.Apps {
			add(a)
		}
	}
	sort.Strings(out)
	return out
}

func (g sweepGrid) harness(seed uint64, cacheDir string) *experiments.Harness {
	h := experiments.NewHarness(g.scale)
	h.Seed = seed
	h.CacheDir = cacheDir
	return h
}

// setup prepares cacheDir for one sweep. For a warm grid it generates,
// private-filters and writes every trace the grid replays, on at most
// workers() goroutines. For a cold grid it empties the directory (the
// previous sweep's traces go), and builds each app's workload (the spec
// validation whirlsweep does before sweeping).
func (g sweepGrid) setup(seed uint64, cacheDir string) error {
	if !g.warm {
		if err := os.RemoveAll(cacheDir); err != nil {
			return err
		}
	}
	if err := os.MkdirAll(cacheDir, 0o777); err != nil {
		return err
	}
	if !g.warm {
		for _, a := range g.traceApps() {
			spec, ok := workloads.ByName(a)
			if !ok {
				return fmt.Errorf("unknown app %q", a)
			}
			workloads.Build(spec, g.scale)
		}
		return nil
	}
	h := g.harness(seed, cacheDir)
	apps := g.traceApps()
	errs := make([]error, len(apps))
	next := make(chan int, len(apps))
	for i := range apps {
		next <- i
	}
	close(next)
	var wg sync.WaitGroup
	for w := 0; w < workers(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				_, errs[i] = h.AppErr(apps[i])
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	if st := h.CacheStats(); st.WriteErrors > 0 {
		return fmt.Errorf("trace cache: %d writes failed", st.WriteErrors)
	}
	return nil
}

// timedSweep runs one sweep of g on a fresh harness and returns its
// rows and host wall time. A cold grid first runs its set-up, whose time
// is returned too.
func (g sweepGrid) timedSweep(seed uint64, cacheDir string, cfg experiments.SweepConfig) (rows []experiments.SweepRow, wall, setup time.Duration, err error) {
	if !g.warm {
		runtime.GC() // as for the sweep below
		start := time.Now()
		if err := g.setup(seed, cacheDir); err != nil {
			return nil, 0, 0, fmt.Errorf("set-up: %w", err)
		}
		setup = time.Since(start)
	}
	h := g.harness(seed, cacheDir)
	runtime.GC() // every sweep starts from a collected heap, not the last one's garbage
	start := time.Now()
	rows, err = h.Sweep(cfg)
	wall = time.Since(start)
	if err != nil {
		return nil, 0, 0, err
	}
	if g.warm {
		if st := h.CacheStats(); st.Builds != 0 {
			return nil, 0, 0, fmt.Errorf("warm sweep regenerated %d traces; the trace cache was not used", st.Builds)
		}
	}
	g.release(h)
	return rows, wall, setup, nil
}

// release unmaps the harness's mapped traces. A harness keeps its
// mappings for its whole life and nothing unmaps them when it is
// dropped, so without this every sweep on a fresh harness would add its
// traces' pages to the process's resident set.
func (g sweepGrid) release(h *experiments.Harness) {
	for _, a := range g.traceApps() {
		if at, err := h.AppErr(a); err == nil {
			if c, ok := at.Tr.(io.Closer); ok {
				_ = c.Close() // read-only mapping; nothing to flush
			}
		}
	}
}

func sumInstrs(rows []experiments.SweepRow) float64 {
	s := 0.0
	for _, r := range rows {
		s += float64(r.Instrs)
	}
	return s
}

// runSweep runs a sweep workload: whole sweeps of the grid until the
// time budget is spent. A warm grid's set-up fills the trace cache
// warmReps times before the first sweep; a cold grid sets up before
// every sweep. setup_s is the median over the set-ups.
func runSweep(g sweepGrid, o options, dir string) (*result, error) {
	if o.traced {
		return runSweepTraced(g, o, dir)
	}
	chk, err := g.checker(o)
	if err != nil {
		return nil, err
	}
	cacheDir := filepath.Join(dir, "cache")
	res := &result{}
	var setups []float64
	if g.warm {
		for i := 0; i < warmReps; i++ {
			runtime.GC()
			start := time.Now()
			if err := g.fill(o.seed, cacheDir); err != nil {
				return nil, err
			}
			setups = append(setups, time.Since(start).Seconds())
		}
	}
	budget := time.Duration(o.seconds * float64(time.Second))
	start := time.Now()
	var rates, cellMS, peaks []float64
	var last time.Duration
	resetOK := true
	for len(rates) == 0 || time.Since(start)+last/2 < budget {
		// Each sweep's peak is measured on its own: one GC that lands late
		// would otherwise set the whole run's peak.
		resetOK = resetPeakRSS() && resetOK
		rows, wall, setup, err := g.timedSweep(o.seed, cacheDir, g.config(nil))
		if err != nil {
			return nil, err
		}
		peaks = append(peaks, peakRSSMB())
		if !g.warm {
			setups = append(setups, setup.Seconds())
		}
		res.Attempted += len(rows)
		res.Failed += chk.check(rows)
		for i, r := range rows {
			lat := r.WallMS
			if chk.Bad[i] {
				lat = ms(failLatency)
			}
			cellMS = append(cellMS, lat)
		}
		rates = append(rates, sumInstrs(rows)/wall.Seconds()/1e6)
		last = wall
	}
	res.add("setup_s", "s", median(setups))
	res.add("minstr_per_s", "Minstr/s", median(rates))
	res.add("max_rss_mb", "MB", median(peaks))
	res.add("op_p50_ms", "ms", median(cellMS))
	if !resetOK {
		res.note("max_rss_mb is the process's peak so far: the peak-RSS mark could not be reset")
	}
	res.drop("error_rate", errorRateDropReason)
	res.note("grid %s cells=%d scale=%g workers=%d sweeps=%d", g.name, g.cells(), g.scale, workers(), len(rates))
	res.note("rows digest=%s checked_against=%s", chk.Digest, chk.mode())
	res.note("minstr_per_s per sweep: %s", fmtFloats(rates))
	res.note("cell n=%d p50_ms=%.3f p90_ms=%.3f beyond_p90=%d", len(cellMS), median(cellMS),
		quantile(append([]float64(nil), cellMS...), 0.9), beyond(len(cellMS), 0.9))
	res.note("setup_s per rep: %s", fmtFloats(setups))
	res.note("max_rss_mb per sweep: %s", fmtFloats(peaks))
	for _, e := range chk.Errors {
		res.note("row failure: %s", e)
	}
	return res, nil
}

// checker loads g's golden rows and returns a checker for o's seed.
func (g sweepGrid) checker(o options) (*rowChecker, error) {
	gold, err := loadGolden(o.goldenDir, g.name)
	if err != nil {
		return nil, err
	}
	return newRowChecker(gold, o.seed, g.scale), nil
}

// fill empties cacheDir and runs a warm grid's set-up in it.
func (g sweepGrid) fill(seed uint64, cacheDir string) error {
	if err := os.RemoveAll(cacheDir); err != nil {
		return err
	}
	if err := g.setup(seed, cacheDir); err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	return nil
}

// errorRateDropReason explains why error_rate is not among the printed
// metrics.
const errorRateDropReason = "it reads 0 on a passing run and a printed metric must never be 0; " +
	"it is the error_rate line above and the result's failed/attempted"

func fmtFloats(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.4g", x)
	}
	return strings.Join(parts, " ")
}

// runSweepTraced is the -trace 1 run of a sweep workload: the sweep
// layers measured on its own grid, and the serving layers on a short
// serve-mixed probe, so that every traced run prints every per-layer
// metric.
func runSweepTraced(g sweepGrid, o options, dir string) (*result, error) {
	res := &result{}
	overhead, err := sweepLayers(g, o, dir, res)
	if err != nil {
		return nil, err
	}
	if _, err := serveLayers(serveSpecFor(o.size), o, filepath.Join(dir, "serve"), res, min(o.seconds, serveProbeSeconds), false); err != nil {
		return nil, fmt.Errorf("serving probe: %w", err)
	}
	reportObs(res, overhead)
	return res, nil
}

// reportObs adds the tracing overhead and turns dropped spans into a
// failed operation: a traced run must keep every span it emits.
func reportObs(res *result, overhead float64) {
	res.add("obs.overhead_frac", "fraction", overhead)
	res.note("obs.dropped_spans=%d", res.DroppedSpans)
	res.drop("obs.dropped_spans", "it reads 0 on a passing run and a printed metric must never be 0; "+
		"a dropped span fails the run instead, and the count is the note above")
	if res.DroppedSpans > 0 {
		res.Attempted++
		res.Failed++
		res.note("span failure: %d spans dropped", res.DroppedSpans)
	}
}

// sweepLayers measures the sweep layers on grid g and adds their metrics
// to res: one untraced and one traced sweep (rows must agree, and the
// pair gives the tracing overhead, which it returns), the trace-layer
// probes on g's apps, and the serial per-scheme kernel pass. A grid
// that does not run every scheme and a mix takes its kernel pass on the
// sweep-warm grid instead, so every scheme's kernel metrics are printed.
func sweepLayers(g sweepGrid, o options, dir string, res *result) (float64, error) {
	chk, err := g.checker(o)
	if err != nil {
		return 0, err
	}
	cacheDir := filepath.Join(dir, g.name+"-cache")
	if g.warm {
		if err := g.fill(o.seed, cacheDir); err != nil {
			return 0, err
		}
	}
	rows0, wall0, _, err := g.timedSweep(o.seed, cacheDir, g.config(nil))
	if err != nil {
		return 0, err
	}
	res.Attempted += len(rows0)
	res.Failed += chk.check(rows0)

	// The traced sweep emits the root, a sweep.cell and a sim.run span
	// per cell, and a trace.load span per app (warm sweeps load mapped
	// traces); the ring holds twice that, so nothing the run emits wraps.
	wantSpans := 1 + 2*g.cells() + len(g.traceApps())
	ringSize := 2 * wantSpans
	tracer := obs.New(ringSize)
	root := tracer.Start(obs.SpanContext{}, "bench.sweep")
	root.SetStr("workload", g.name)
	rootSC := root.Context()
	cfg := g.config(tracer)
	cfg.Context = obs.NewContext(context.Background(), rootSC)
	rows1, wall1, _, err := g.timedSweep(o.seed, cacheDir, cfg)
	root.EndDuration(wall1)
	if err != nil {
		return 0, err
	}
	res.Attempted += len(rows1)
	res.Failed += chk.check(rows1)
	tracedDigest := chk.Digest
	spans := tracer.Collect(rootSC.Trace)
	if t := int(tracer.Total()); t > ringSize {
		res.DroppedSpans += t - ringSize
	}
	if len(spans) < wantSpans {
		res.DroppedSpans += wantSpans - len(spans)
	}
	var prefetch time.Duration
	var cells []float64
	var first, last time.Time
	var covered time.Duration
	for _, s := range spans {
		switch s.Name {
		case "trace.load":
			prefetch += s.Dur
		case "sweep.cell":
			cells = append(cells, ms(s.Dur))
			covered += s.Dur
			if first.IsZero() || s.Start.Before(first) {
				first = s.Start
			}
			if end := s.Start.Add(s.Dur); end.After(last) {
				last = end
			}
		}
	}
	if len(cells) == 0 {
		return 0, fmt.Errorf("traced sweep emitted no sweep.cell spans")
	}
	window := last.Sub(first)
	idle := 1 - covered.Seconds()/(float64(workers())*window.Seconds())
	res.add("experiments.prefetch_ms", "ms", ms(prefetch))
	res.add("experiments.cell_p50_ms", "ms", quantile(append([]float64(nil), cells...), 0.5))
	res.add("experiments.cell_p90_ms", "ms", quantile(append([]float64(nil), cells...), 0.9))
	res.add("experiments.idle_frac", "fraction", idle)

	probes, err := probeTraces(g, o.seed, filepath.Join(dir, "probe"))
	if err != nil {
		return 0, err
	}
	cacheBytes, err := dirBytes(cacheDir)
	if err != nil {
		return 0, err
	}
	res.add("workloads.gen_ms", "ms", ms(probes.gen))
	res.add("trace.filter_ms", "ms", ms(probes.filter))
	res.add("trace.encode_ms", "ms", ms(probes.encode))
	res.add("trace.cache_mb", "MB", float64(cacheBytes)/1e6)
	res.add("trace.bytes_per_access", "B", float64(probes.fileBytes)/float64(probes.accesses))
	res.add("trace.open_ms", "ms", ms(probes.open))
	res.add("trace.decode_ns_per_access", "ns", probes.decodeNS/float64(probes.accesses))

	kg, kcache, kref, kdecode := g, cacheDir, rows0, probes.decodeNSPerAccess
	if !g.kernels {
		kg = warmGrid(o.size)
		kcache = filepath.Join(dir, kg.name+"-cache")
		if kref, kdecode, err = kernelGridSetup(kg, o, dir, kcache, res); err != nil {
			return 0, err
		}
	}
	kp, err := kernelPass(kg, o.seed, kcache, kref, kdecode)
	if err != nil {
		return 0, err
	}
	res.Attempted += kp.attempted
	res.Failed += kp.failed
	kp.report(res, kg)

	if err := writeSpans(o, "sweep", spans); err != nil {
		return 0, err
	}
	res.note("grid %s cells=%d scale=%g workers=%d kernel_grid=%s", g.name, g.cells(), g.scale, workers(), kg.name)
	res.note("rows digest untraced=%s traced=%s checked_against=%s; kernel pass on %s digest=%s",
		rowsDigest(detLines(rows0)), tracedDigest, chk.mode(), kg.name, kp.digest)
	for _, e := range append(chk.Errors, kp.errors...) {
		res.note("row failure: %s", e)
	}
	return wall1.Seconds()/wall0.Seconds() - 1, nil
}

// kernelGridSetup prepares a kernel pass on the warm grid kg for a
// workload whose own grid does not run every scheme: it fills kg's trace
// cache, runs one checked sweep of kg for the reference rows, and probes
// kg's traces for their decode cost.
func kernelGridSetup(kg sweepGrid, o options, dir, cacheDir string, res *result) ([]experiments.SweepRow, map[string]float64, error) {
	chk, err := kg.checker(o)
	if err != nil {
		return nil, nil, err
	}
	if err := kg.fill(o.seed, cacheDir); err != nil {
		return nil, nil, err
	}
	rows, _, _, err := kg.timedSweep(o.seed, cacheDir, kg.config(nil))
	if err != nil {
		return nil, nil, err
	}
	res.Attempted += len(rows)
	res.Failed += chk.check(rows)
	for _, e := range chk.Errors {
		res.note("row failure: %s", e)
	}
	probes, err := probeTraces(kg, o.seed, filepath.Join(dir, "kernel-probe"))
	if err != nil {
		return nil, nil, err
	}
	return rows, probes.decodeNSPerAccess, nil
}

func detLines(rows []experiments.SweepRow) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = detLine(r)
	}
	return out
}

// dirBytes sums the sizes of the regular files directly in dir.
func dirBytes(dir string) (int64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, e := range ents {
		if info, err := e.Info(); err == nil && info.Mode().IsRegular() {
			n += info.Size()
		}
	}
	return n, nil
}

// writeSpans writes the traced run's spans of one layer group ("sweep"
// or "serve"), once, as JSONL.
func writeSpans(o options, group string, spans []obs.Span) error {
	var buf []byte
	for i := range spans {
		buf = obs.AppendSpanJSON(buf, &spans[i])
		buf = append(buf, '\n')
	}
	return writeSpansJSONL(o, group, buf)
}

// writeSpansJSONL writes span JSONL under the work directory, which
// outlives the run's own scratch subdirectory.
func writeSpansJSONL(o options, group string, jsonl []byte) error {
	dir := filepath.Join(o.workdir, "spans")
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-%s-seed%d.jsonl", o.workload, group, o.seed)), jsonl, 0o666)
}
