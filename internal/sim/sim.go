// Package sim is the chip simulator: it replays per-core LLC traces
// (produced by trace.FilterPrivate) against a pluggable LLC organization,
// interleaving cores by their simulated cycle counts, accumulating timing,
// data-movement energy, and per-pool statistics.
//
// Traces arrive as trace.Reader values and are replayed through cursors:
// the simulator never materializes an access slice, so a run's resident
// cost is the columnar trace plus O(1) per-core replay state. Warmup and
// fixed-work (Loop) passes rewind via Cursor.Reset.
package sim

import (
	"fmt"

	"whirlpool/internal/addr"
	"whirlpool/internal/energy"
	"whirlpool/internal/llc"
	"whirlpool/internal/mem"
	"whirlpool/internal/trace"
)

// DefaultTickEvery is how often (in cycles) the LLC's runtime hook fires.
const DefaultTickEvery = 100_000

// Config describes one simulation run.
type Config struct {
	// LLC is the organization under test (constructed against Meter).
	LLC llc.LLC
	// Meter accumulates data-movement energy for the run.
	Meter *energy.Meter
	// Traces holds one filtered trace reader per core; nil entries are
	// idle cores.
	Traces []trace.Reader
	// TickEvery is the LLC runtime hook period in cycles.
	TickEvery uint64
	// PoolOf optionally classifies lines for per-pool statistics.
	PoolOf func(addr.Line) mem.PoolID
	// NumPools sizes the per-pool counters when PoolOf is set.
	NumPools int
	// OnAccess, if set, observes every demand access (time-series
	// figures). Keep it nil on hot paths.
	OnAccess func(now uint64, core int, a trace.LLCAccess, lat uint64, out llc.Outcome)
	// OnTick, if set, fires after every LLC Tick (allocation sampling).
	OnTick func(now uint64)
	// Loop keeps cores replaying their traces until every core has
	// completed at least one pass (the fixed-work mix methodology);
	// per-core stats freeze at first completion.
	Loop bool
	// Warmup replays each trace once, unmeasured, before the measured
	// pass — the analogue of the paper's 20B-instruction fast-forward.
	// Caches, monitors, and the reconfiguration runtime reach steady
	// state; energy and timing counters then start from zero.
	Warmup bool
}

// CoreResult summarizes one core's run.
type CoreResult struct {
	Instrs     uint64
	Cycles     uint64
	LLCStall   uint64
	Demand     uint64
	Hits       uint64
	Misses     uint64
	Bypasses   uint64
	Writebacks uint64
}

// IPC returns instructions per cycle.
func (c CoreResult) IPC() float64 {
	if c.Cycles == 0 {
		return 0
	}
	return float64(c.Instrs) / float64(c.Cycles)
}

// Result is the outcome of one simulation run.
type Result struct {
	Scheme string
	// Cycles is when the last core finished its (first) pass.
	Cycles uint64
	Cores  []CoreResult
	Energy energy.Meter

	Hits, Misses, Bypasses uint64
	Demand                 uint64
	Instrs                 uint64

	// PoolAccesses/PoolMisses are per-pool demand counters (when PoolOf
	// is configured).
	PoolAccesses []uint64
	PoolMisses   []uint64
}

// TotalAccessesAPKI returns demand LLC accesses per kilo-instruction.
func (r *Result) TotalAccessesAPKI() float64 {
	if r.Instrs == 0 {
		return 0
	}
	return float64(r.Demand) / float64(r.Instrs) * 1000
}

// MPKI returns LLC misses (including bypasses) per kilo-instruction.
func (r *Result) MPKI() float64 {
	if r.Instrs == 0 {
		return 0
	}
	return float64(r.Misses+r.Bypasses) / float64(r.Instrs) * 1000
}

// coreState tracks replay progress for one core: a cursor over its
// trace plus position/cycle counters.
type coreState struct {
	cur  trace.Cursor
	core int           // the core this state replays for
	n    int           // accesses per pass
	sum  trace.Summary // the trace's private-level stats

	pos       int
	cycles    uint64
	warmStart uint64 // cycle count when measurement began
	instrs    uint64
	passes    int
	finished  bool // stats frozen
	res       CoreResult
}

// next returns the core's next access, rewinding the cursor at the end
// of each full pass. done reports that this access completes a pass.
// A cursor that stopped early has replayed a short pass, so next panics
// at the pass boundary rather than let a plausible but wrong row out;
// the sweep's per-cell recover turns the panic into an error row.
func (cs *coreState) next() (a trace.LLCAccess, done bool) {
	a, _ = cs.cur.Next()
	cs.pos++
	if cs.pos >= cs.n {
		if err := cs.cur.Err(); err != nil {
			panic(fmt.Errorf("sim: core %d trace replay failed: %w", cs.core, err))
		}
		cs.cur.Reset()
		cs.pos = 0
		return a, true
	}
	return a, false
}

// Runner executes simulations while reusing all per-run scratch state —
// the per-core replay states, the scheduler's pick list, and (when the
// same trace reader comes back, as it does for every scheme of one app
// in a batched sweep cell) the decode cursors themselves, rewound
// instead of reallocated. A sweep worker holds one Runner for its whole
// cell stream, so per-cell sim setup is a handful of resets instead of a
// fresh allocation graph.
//
// A Runner is not safe for concurrent use; give each goroutine its own.
// The zero value is ready to use. Results returned by Run are
// independent of the Runner and stay valid across later runs.
type Runner struct {
	cores  []coreState    // per-slot replay state, reused across runs
	lastTr []trace.Reader // slot i's reader last run; pointer-equal => cursor reuse
	pick   []int          // scheduler scratch: core indices still in play
	warm   []int          // warmupPass scratch copy of pick
}

// NewRunner returns an empty Runner (equivalent to new(Runner)).
func NewRunner() *Runner { return &Runner{} }

// warmupPass replays every trace once without recording statistics,
// bringing caches, monitors, and runtimes to steady state. It returns the
// next Tick deadline.
func (r *Runner) warmupPass(cfg Config, cores []coreState, pick []int, nextTick uint64) uint64 {
	// Work on a scratch copy: cores leave the list as they finish their
	// pass. Ordered removal keeps the scan's ascending-index tie-break,
	// so results stay bit-identical to the historical full scan.
	live := append(r.warm[:0], pick...)
	r.warm = live[:0]
	for len(live) > 0 {
		var cs *coreState
		core, k := live[0], 0
		if len(live) == 1 {
			cs = &cores[core]
		} else {
			for j, i := range live {
				c := &cores[i]
				if cs == nil || c.cycles < cs.cycles {
					cs, core, k = c, i, j
				}
			}
		}
		a, done := cs.next()
		if a.Writeback {
			_, _ = cfg.LLC.Access(core, a)
		} else {
			cs.cycles += uint64(float64(a.Gap) * trace.BaseCPI)
			lat, _ := cfg.LLC.Access(core, a)
			cs.cycles += uint64(float64(lat) * trace.LLCStallFactor)
		}
		if cs.cycles >= nextTick {
			cfg.LLC.Tick(cs.cycles)
			nextTick += cfg.TickEvery
		}
		if done {
			cs.finished = true
			live = append(live[:k], live[k+1:]...)
		}
	}
	return nextTick
}

// Run executes the simulation to completion and returns the result. It
// is shorthand for new(Runner).Run(cfg); hot callers that run many
// simulations (sweep workers) keep a Runner instead.
func Run(cfg Config) *Result {
	return new(Runner).Run(cfg)
}

// Run executes one simulation to completion, reusing the Runner's
// arenas. Results are bit-identical to the package-level Run.
func (r *Runner) Run(cfg Config) *Result {
	if cfg.TickEvery == 0 {
		cfg.TickEvery = DefaultTickEvery
	}
	res := &Result{Scheme: cfg.LLC.Name()}
	if cfg.PoolOf != nil {
		res.PoolAccesses = make([]uint64, cfg.NumPools)
		res.PoolMisses = make([]uint64, cfg.NumPools)
	}
	n := len(cfg.Traces)
	if cap(r.cores) < n {
		r.cores = make([]coreState, n)
		r.lastTr = make([]trace.Reader, n)
	}
	cores, lastTr := r.cores[:n], r.lastTr[:n]
	pick := r.pick[:0]
	for i, t := range cfg.Traces {
		cs := &cores[i]
		if t == nil || t.NumAccesses() == 0 {
			*cs = coreState{}
			lastTr[i] = nil
			continue
		}
		// Reuse the slot's cursor when the same reader is back (every
		// scheme of a batched same-app cell group): Reset fully rewinds
		// decode state, so a rewound cursor is indistinguishable from a
		// fresh one.
		cur := cs.cur
		if cur != nil && lastTr[i] == t {
			cur.Reset()
		} else {
			cur = t.NewCursor()
			lastTr[i] = t
		}
		*cs = coreState{cur: cur, core: i, n: t.NumAccesses(), sum: t.Stats()}
		pick = append(pick, i)
	}
	r.pick = pick[:0]
	if len(pick) == 0 {
		return res
	}
	var nextTick uint64 = cfg.TickEvery
	if cfg.Warmup {
		nextTick = r.warmupPass(cfg, cores, pick, nextTick)
		// Measurement starts warm: reset timing and energy, keep cache
		// state. The cursors were rewound as each warmup pass completed.
		for _, i := range pick {
			c := &cores[i]
			warmCycles := c.cycles
			*c = coreState{
				cur: c.cur, core: c.core, n: c.n, sum: c.sum,
				cycles: warmCycles, warmStart: warmCycles,
			}
		}
		cfg.Meter.Reset()
	}
	remaining := len(pick)
	for remaining > 0 {
		// Pick the lagging core. The single-active-core case (every
		// RunSingle sweep cell) needs no scan at all; multi-core mixes
		// scan the in-play list — ascending core order, matching the
		// historical full-array scan's tie-break. Under fixed-work (Loop)
		// finished cores keep running until every core completes at least
		// one pass; otherwise they leave the list at first completion.
		var cs *coreState
		core := -1
		if len(pick) == 1 {
			core = pick[0]
			cs = &cores[core]
		} else {
			for _, i := range pick {
				c := &cores[i]
				if cs == nil || c.cycles < cs.cycles {
					cs, core = c, i
				}
			}
		}
		if cs == nil {
			break
		}
		a, done := cs.next()
		if a.Writeback {
			_, _ = cfg.LLC.Access(core, a)
			if !cs.finished {
				cs.res.Writebacks++
			}
		} else {
			cs.cycles += uint64(float64(a.Gap) * trace.BaseCPI)
			cs.instrs += uint64(a.Gap)
			lat, out := cfg.LLC.Access(core, a)
			lat = uint64(float64(lat) * trace.LLCStallFactor)
			cs.cycles += lat
			if !cs.finished {
				cs.res.Demand++
				cs.res.LLCStall += lat
				switch out {
				case llc.Hit:
					cs.res.Hits++
				case llc.Bypass:
					cs.res.Bypasses++
				default:
					cs.res.Misses++
				}
				if cfg.PoolOf != nil {
					p := int(cfg.PoolOf(a.Line))
					if p >= 0 && p < len(res.PoolAccesses) {
						res.PoolAccesses[p]++
						if out != llc.Hit {
							res.PoolMisses[p]++
						}
					}
				}
			}
			if cfg.OnAccess != nil {
				cfg.OnAccess(cs.cycles, core, a, lat, out)
			}
		}
		if cs.cycles >= nextTick {
			cfg.LLC.Tick(cs.cycles)
			if cfg.OnTick != nil {
				cfg.OnTick(cs.cycles)
			}
			nextTick += cfg.TickEvery
		}
		if done {
			cs.passes++
			if !cs.finished {
				cs.finished = true
				cs.res.Instrs = cs.instrs
				cs.res.Cycles = cs.cycles - cs.warmStart + cs.sum.L2Hits*trace.L2HitStall
				remaining--
				if !cfg.Loop {
					for k, i := range pick {
						if i == core {
							pick = append(pick[:k], pick[k+1:]...)
							break
						}
					}
				}
			}
		}
	}
	// Gather totals from frozen per-core results.
	res.Cores = make([]CoreResult, 0, n)
	for i := range cfg.Traces {
		var cr CoreResult
		if cores[i].cur != nil {
			cr = cores[i].res
		}
		res.Cores = append(res.Cores, cr)
		res.Hits += cr.Hits
		res.Misses += cr.Misses
		res.Bypasses += cr.Bypasses
		res.Demand += cr.Demand
		res.Instrs += cr.Instrs
		if cr.Cycles > res.Cycles {
			res.Cycles = cr.Cycles
		}
	}
	res.Energy = *cfg.Meter
	return res
}
