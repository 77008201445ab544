package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"whirlpool/internal/addr"
	"whirlpool/internal/energy"
	"whirlpool/internal/experiments"
	"whirlpool/internal/jigsaw"
	"whirlpool/internal/llc"
	"whirlpool/internal/noc"
	"whirlpool/internal/schemes"
	"whirlpool/internal/sim"
	"whirlpool/internal/trace"
	"whirlpool/internal/workloads"
)

// traceProbes are the workloads and trace layers timed by calling their
// public functions directly on a grid's apps.
type traceProbes struct {
	gen, filter, encode, open time.Duration
	fileBytes                 int64
	accesses                  int64
	decodeNS                  float64
	// decodeNSPerAccess is each app's cursor-scan cost over its mapped
	// trace, used to split kernel cell time into decode and access.
	decodeNSPerAccess map[string]float64
}

// probeTraces times, per app: draining Workload.Stream (gen),
// FilterPrivate over a fresh stream minus the drain (filter), WriteFile
// (encode), OpenMapped (open) and a full cursor scan of the mapping
// (decode). The files land in dir.
func probeTraces(g sweepGrid, seed uint64, dir string) (*traceProbes, error) {
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return nil, err
	}
	p := &traceProbes{decodeNSPerAccess: map[string]float64{}}
	for _, app := range g.traceApps() {
		spec, ok := workloads.ByName(app)
		if !ok {
			return nil, fmt.Errorf("unknown app %q", app)
		}
		w := workloads.Build(spec, g.scale)
		start := time.Now()
		s := w.Stream(seed)
		for {
			if _, ok := s.Next(); !ok {
				break
			}
		}
		gen := time.Since(start)
		start = time.Now()
		tr := trace.FilterPrivate(w.Stream(seed))
		if f := time.Since(start) - gen; f > 0 {
			p.filter += f
		}
		p.gen += gen

		path := filepath.Join(dir, app+".wtrc")
		start = time.Now()
		if err := trace.WriteFile(path, tr); err != nil {
			return nil, err
		}
		p.encode += time.Since(start)
		info, err := os.Stat(path)
		if err != nil {
			return nil, err
		}
		p.fileBytes += info.Size()

		start = time.Now()
		m, err := trace.OpenMapped(path)
		if err != nil {
			return nil, err
		}
		p.open += time.Since(start)
		n := m.NumAccesses()
		var best time.Duration
		for rep := 0; rep < 3; rep++ {
			c := m.NewCursor()
			start = time.Now()
			for i := 0; i < n; i++ {
				c.Next()
			}
			if d := time.Since(start); rep == 0 || d < best {
				best = d
			}
			if ce, ok := c.(interface{ Err() error }); ok && ce.Err() != nil {
				m.Close()
				return nil, fmt.Errorf("%s: decode: %w", app, ce.Err())
			}
		}
		if err := m.Close(); err != nil {
			return nil, err
		}
		p.accesses += int64(n)
		p.decodeNS += float64(best.Nanoseconds())
		if n > 0 {
			p.decodeNSPerAccess[app] = float64(best.Nanoseconds()) / float64(n)
		}
	}
	if p.accesses == 0 {
		return nil, fmt.Errorf("probed traces hold no accesses")
	}
	return p, nil
}

// tickTimer wraps a scheme's LLC and times only its Tick calls (the
// reconfiguration runtime). Access passes straight through the embedded
// interface: a per-access timer would distort the kernel it measures.
type tickTimer struct {
	llc.LLC
	tick time.Duration
}

func (t *tickTimer) Tick(now uint64) {
	start := time.Now()
	t.LLC.Tick(now)
	t.tick += time.Since(start)
}

// poolClassifier mirrors the sweep engine's Whirlpool classifier for a
// single app: each manual pool gets a VC on the app's core. The traced
// run proves the mirror exact by comparing the kernel pass's rows with
// the sweep's.
func poolClassifier(w *workloads.Workload) llc.Classifier {
	if len(w.Structs) == 0 {
		return func(core int, _ addr.Line) llc.VCKey { return llc.VCKey{Core: int16(core)} }
	}
	cpPools := w.CallpointPools(w.ManualGrouping())
	space := w.Space
	return func(core int, line addr.Line) llc.VCKey {
		return llc.VCKey{Core: int16(core), Pool: cpPools[space.CallpointOfLine(line)]}
	}
}

// rowFromResult builds a sweep row from a simulation result the way the
// sweep engine does, so kernel-pass rows compare with sweep rows.
func rowFromResult(name string, mix bool, kind schemes.Kind, r *sim.Result) experiments.SweepRow {
	ipc := 0.0
	if r.Cycles != 0 {
		ipc = float64(r.Instrs) / float64(r.Cycles)
	}
	return experiments.SweepRow{
		App: name, Scheme: kind.ID(), Mix: mix,
		Cycles: r.Cycles, Instrs: r.Instrs, IPC: ipc,
		APKI: r.TotalAccessesAPKI(), MPKI: r.MPKI(),
		LLCAccesses: r.Demand, Hits: r.Hits, Misses: r.Misses, Bypasses: r.Bypasses,
		EnergyPJ: r.Energy.Total(), NetworkEnergyPJ: r.Energy.NetworkPJ,
		BankEnergyPJ: r.Energy.BankPJ, MemoryEnergyPJ: r.Energy.MemoryPJ,
	}
}

// schemeStats accumulates one scheme's kernel-pass cells.
type schemeStats struct {
	cells                    int
	cellNS, tickNS, decodeNS float64
	replayed                 float64
	allocs                   float64
	reconfigs, moved, bypass uint64
	dnuca                    bool
}

// kernelResult is the serial kernel pass over a grid.
type kernelResult struct {
	perScheme  map[schemes.Kind]*schemeStats
	mixCellsMS []float64
	attempted  int
	failed     int
	digest     string
	errors     []string
}

// kernelPass runs every cell of g serially on one sim.Runner, single-app
// cells through Harness.RunSingle with an LLCOverride that times Tick,
// mix cells through RunMixPinned, and checks each row against the
// sweep's row for the same cell (ref, in grid order).
func kernelPass(g sweepGrid, seed uint64, cacheDir string, ref []experiments.SweepRow, decodeNS map[string]float64) (*kernelResult, error) {
	h := g.harness(seed, cacheDir)
	runner := sim.NewRunner()
	kr := &kernelResult{perScheme: map[schemes.Kind]*schemeStats{}}
	var lines []string
	idx := 0
	check := func(row experiments.SweepRow) {
		if idx >= len(ref) {
			kr.failed++
			return
		}
		row.Key = ref[idx].Key
		line := detLine(row)
		lines = append(lines, line)
		kr.attempted++
		if want := detLine(ref[idx]); line != want {
			kr.failed++
			if len(kr.errors) < 5 {
				kr.errors = append(kr.errors, fmt.Sprintf("kernel pass %s/%s differs from the sweep:\n  got  %s\n  want %s", row.App, row.Scheme, line, want))
			}
		}
		idx++
	}
	var ms0, ms1 runtime.MemStats
	for _, app := range g.apps {
		at, err := h.AppErr(app)
		if err != nil {
			return nil, err
		}
		replayed := 2 * float64(at.Tr.NumAccesses()) // warm-up pass + measured pass
		for _, kind := range g.kinds {
			var inner llc.LLC
			tt := &tickTimer{}
			opt := experiments.RunOptions{
				Runner: runner,
				LLCOverride: func(chip *noc.Chip, m *energy.Meter) llc.LLC {
					inner = schemes.Build(kind, schemes.Options{
						Chip:              chip,
						Meter:             m,
						JigsawClassify:    llc.ThreadPrivate,
						WhirlpoolClassify: poolClassifier(at.W),
						ReconfigCycles:    h.ReconfigCycles,
						JigsawBypass:      true,
						WhirlpoolBypass:   true,
					})
					tt.LLC = inner
					return tt
				},
			}
			runtime.ReadMemStats(&ms0)
			start := time.Now()
			r := h.RunSingle(app, kind, opt)
			d := time.Since(start)
			runtime.ReadMemStats(&ms1)
			check(rowFromResult(app, false, kind, r))

			st := kr.perScheme[kind]
			if st == nil {
				st = &schemeStats{}
				kr.perScheme[kind] = st
			}
			st.cells++
			st.cellNS += float64(d.Nanoseconds())
			st.tickNS += float64(tt.tick.Nanoseconds())
			st.decodeNS += decodeNS[app] * replayed
			st.replayed += replayed
			st.allocs += float64(ms1.Mallocs - ms0.Mallocs)
			if dn, ok := inner.(*jigsaw.Dnuca); ok {
				st.dnuca = true
				st.reconfigs += dn.Reconfigs
				st.moved += dn.MovedLines
				st.bypass += dn.BypassSwitch
			}
		}
	}
	for _, m := range g.mixes {
		for _, kind := range g.kinds {
			chip := m.Chip
			if chip == nil {
				chip = noc.FourCoreChip() // the sweep engine's chip for mixes of up to four apps
			}
			start := time.Now()
			r := h.RunMixPinned(m.Apps, m.Pins, kind, chip, false)
			kr.mixCellsMS = append(kr.mixCellsMS, ms(time.Since(start)))
			check(rowFromResult(m.Name, true, kind, r))
		}
	}
	g.release(h)
	kr.digest = rowsDigest(lines)
	return kr, nil
}

// report adds the kernel pass's per-layer metrics to res.
func (kr *kernelResult) report(res *result, g sweepGrid) {
	for _, kind := range g.kinds {
		st := kr.perScheme[kind]
		if st == nil || st.cells == 0 {
			continue
		}
		n := float64(st.cells)
		id := kind.ID()
		res.add("sim."+id+".cell_ms", "ms", st.cellNS/n/1e6)
		res.add("sim."+id+".ns_per_access", "ns", st.cellNS/st.replayed)
		res.add("sim."+id+".allocs_per_cell", "count", st.allocs/n)
		res.add("llc."+id+".tick_ms", "ms", st.tickNS/n/1e6)
		res.add("llc."+id+".access_ms", "ms", (st.cellNS-st.tickNS-st.decodeNS)/n/1e6)
		if st.dnuca {
			res.add("jigsaw."+id+".reconfigs", "count", float64(st.reconfigs))
			res.add("jigsaw."+id+".moved_lines", "count", float64(st.moved))
			res.add("jigsaw."+id+".bypass_switches", "count", float64(st.bypass))
		}
	}
	if len(kr.mixCellsMS) > 0 {
		res.add("sim.mix.cell_ms", "ms", mean(kr.mixCellsMS))
	}
}
