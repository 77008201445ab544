// Package workloads synthesizes the paper's benchmark suite. Each app is a
// set of data structures (allocated from the simulated pool allocator,
// tagged with per-structure callpoints) plus a deterministic access-stream
// generator reproducing the documented pool structure: sizes, access
// splits, reuse patterns, and phase behaviour (Table 2, Figs 2, 6, 8, 9,
// 11). See docs/design.md for why this substitution preserves the experiments.
package workloads

import (
	"fmt"

	"whirlpool/internal/addr"
	"whirlpool/internal/mem"
	"whirlpool/internal/stats"
	"whirlpool/internal/trace"
)

// Pattern selects a structure's reference pattern.
type Pattern int

// Reference patterns.
const (
	// Inherit keeps the structure's default pattern (phase overrides).
	Inherit Pattern = iota
	// Seq streams sequentially through the structure, wrapping.
	Seq
	// Rand touches uniform random lines.
	Rand
	// Zipf touches lines with Zipfian popularity (Param = exponent).
	Zipf
	// Chase walks a fixed pseudo-random permutation (pointer chasing).
	Chase
	// WSLoop loops sequentially over the first Param fraction of lines.
	WSLoop
	// RandWS touches uniform random lines within the first Param fraction.
	RandWS
)

// String names the pattern.
func (p Pattern) String() string {
	switch p {
	case Seq:
		return "seq"
	case Rand:
		return "rand"
	case Zipf:
		return "zipf"
	case Chase:
		return "chase"
	case WSLoop:
		return "wsloop"
	case RandWS:
		return "randws"
	}
	return "inherit"
}

// StructSpec describes one program data structure.
type StructSpec struct {
	Name      string
	Bytes     uint64
	Pattern   Pattern
	Param     float64 // Zipf exponent or WS fraction
	WriteFrac float64 // fraction of accesses that are stores
}

// PhaseSpec describes one phase of execution. Phases cycle.
type PhaseSpec struct {
	// Len is the relative length of this phase within one period.
	Len float64
	// Weights gives each structure's share of accesses in this phase.
	Weights []float64
	// Patterns optionally overrides per-structure patterns (Inherit keeps
	// the default). Nil means no overrides.
	Patterns []Pattern
	// Params optionally overrides per-structure pattern params (0 keeps
	// the default). Nil means no overrides.
	Params []float64
}

// AppSpec is the complete static description of a synthetic benchmark.
type AppSpec struct {
	Name    string
	Suite   string // "spec" or "pbbs"
	Structs []StructSpec
	Phases  []PhaseSpec
	// PeriodFrac is the fraction of the run one full phase cycle takes
	// (1.0 = phases run once; 0.2 = the cycle repeats 5 times).
	PeriodFrac float64
	// PhaseJitter randomizes phase instance lengths by ±jitter fraction
	// (refine's irregular phase changes).
	PhaseJitter float64
	// APKI is the raw (L1-level) line-touch rate per kilo-instruction.
	APKI float64
	// Accesses is the default raw line-touch count at scale 1.0.
	Accesses uint64
	// ManualPools groups structure indices into the paper's manual pools
	// (Table 2). Structures absent from every group go to the default
	// pool.
	ManualPools [][]int
	// ManualLOC is the paper-reported lines of code changed (Table 2);
	// zero for apps the paper did not port manually.
	ManualLOC int
	// TracePath marks a trace-sourced app: instead of generating a
	// synthetic stream, the experiments harness replays the recorded
	// .wtrc file at this path (spec files with "source": "trace").
	// Trace-sourced apps have no structures; scale and seed are inert.
	TracePath string
}

// Workload is a built app: structures allocated in a simulated address
// space, ready to generate access streams.
type Workload struct {
	Spec    AppSpec
	Space   *mem.Space
	Structs []StructAlloc
	// Total raw accesses this workload will generate.
	Accesses uint64
}

// StructAlloc records where a structure landed.
type StructAlloc struct {
	Spec  StructSpec
	Base  addr.Addr
	Lines uint64
	CP    mem.Callpoint
}

// Build allocates the app's structures. Each structure allocates from its
// own callpoint (callpoint id = structure index + 1), mirroring the
// paper's observation that semantically different data comes from
// different allocation sites. scale multiplies the access count (not the
// footprint).
func Build(spec AppSpec, scale float64) *Workload {
	sp := mem.NewSpace()
	w := &Workload{Spec: spec, Space: sp}
	for i, st := range spec.Structs {
		cp := mem.Callpoint(i + 1)
		base := sp.Malloc(st.Bytes, mem.DefaultPool, cp)
		w.Structs = append(w.Structs, StructAlloc{
			Spec:  st,
			Base:  base,
			Lines: addr.LinesFor(st.Bytes),
			CP:    cp,
		})
	}
	w.Accesses = uint64(float64(spec.Accesses) * scale)
	if w.Accesses == 0 {
		w.Accesses = spec.Accesses
	}
	return w
}

// gen is the deterministic access-stream generator.
type gen struct {
	w   *Workload
	rng *stats.Rng

	remaining uint64
	gap       uint32

	// Per-structure pattern state.
	pos    []uint64 // sequential/chase positions
	stride []uint64 // chase strides (odd, structure-specific)

	// Phase state.
	phase      int
	phaseLeft  uint64
	phaseLens  []uint64 // accesses per phase instance (before jitter)
	cum        []float64
	curPattern []Pattern
	curParam   []float64
}

// Stream returns a fresh deterministic access stream for the workload.
// Streams with the same seed are identical. Trace-sourced workloads
// (AppSpec.TracePath) have no generator: their stream is empty, and the
// harness replays the recorded LLC trace instead. A synthetic spec
// without structs or phases is a construction error and still panics
// loudly rather than generating an empty (silently wrong) stream.
func (w *Workload) Stream(seed uint64) trace.Stream {
	if w.Spec.TracePath != "" {
		return &trace.SliceStream{}
	}
	g := &gen{
		w:         w,
		rng:       stats.NewRng(seed ^ stats.Hash64(hashName(w.Spec.Name))),
		remaining: w.Accesses,
	}
	g.gap = uint32(1000.0 / w.Spec.APKI)
	if g.gap == 0 {
		g.gap = 1
	}
	n := len(w.Structs)
	g.pos = make([]uint64, n)
	g.stride = make([]uint64, n)
	for i, st := range w.Structs {
		// A large odd stride coprime with the line count gives a fixed
		// pseudo-random full cycle for Chase.
		s := (stats.Hash64(uint64(i)+seed) | 1) % st.Lines
		if s < 2 {
			s = 3
		}
		for gcd(s, st.Lines) != 1 {
			s += 2
			if s >= st.Lines {
				s = 3
			}
		}
		g.stride[i] = s
	}
	// Phase lengths.
	period := w.Spec.PeriodFrac
	if period <= 0 || period > 1 {
		period = 1
	}
	total := float64(w.Accesses) * period
	var sumLen float64
	for _, p := range w.Spec.Phases {
		sumLen += p.Len
	}
	for _, p := range w.Spec.Phases {
		g.phaseLens = append(g.phaseLens, uint64(total*p.Len/sumLen))
	}
	g.curPattern = make([]Pattern, n)
	g.curParam = make([]float64, n)
	g.cum = make([]float64, n)
	g.enterPhase(0)
	return g
}

func hashName(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

func gcd(a, b uint64) uint64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func (g *gen) enterPhase(i int) {
	g.phase = i
	ph := g.w.Spec.Phases[i]
	g.phaseLeft = g.phaseLens[i]
	if g.w.Spec.PhaseJitter > 0 {
		j := 1 + g.w.Spec.PhaseJitter*(2*g.rng.Float64()-1)
		g.phaseLeft = uint64(float64(g.phaseLeft) * j)
		if g.phaseLeft == 0 {
			g.phaseLeft = 1
		}
	}
	// Cumulative weights for structure selection.
	sum := 0.0
	for _, w := range ph.Weights {
		sum += w
	}
	acc := 0.0
	for s := range g.w.Structs {
		wgt := 0.0
		if s < len(ph.Weights) {
			wgt = ph.Weights[s]
		}
		acc += wgt / sum
		g.cum[s] = acc
		g.curPattern[s] = g.w.Structs[s].Spec.Pattern
		g.curParam[s] = g.w.Structs[s].Spec.Param
		if ph.Patterns != nil && s < len(ph.Patterns) && ph.Patterns[s] != Inherit {
			g.curPattern[s] = ph.Patterns[s]
		}
		if ph.Params != nil && s < len(ph.Params) && ph.Params[s] != 0 {
			g.curParam[s] = ph.Params[s]
		}
	}
}

// Next implements trace.Stream.
func (g *gen) Next() (trace.Access, bool) {
	if g.remaining == 0 {
		return trace.Access{}, false
	}
	g.remaining--
	if g.phaseLeft == 0 {
		g.enterPhase((g.phase + 1) % len(g.w.Spec.Phases))
	}
	g.phaseLeft--

	// Pick a structure by phase weights.
	u := g.rng.Float64()
	s := 0
	for s < len(g.cum)-1 && u > g.cum[s] {
		s++
	}
	st := &g.w.Structs[s]
	lines := st.Lines
	var off uint64
	switch g.curPattern[s] {
	case Seq:
		off = g.pos[s]
		g.pos[s]++
		if g.pos[s] >= lines {
			g.pos[s] = 0
		}
	case Rand:
		off = g.rng.Uint64n(lines)
	case Zipf:
		off = uint64(g.rng.Zipf(int(lines), g.curParam[s]))
	case Chase:
		g.pos[s] = (g.pos[s] + g.stride[s]) % lines
		off = g.pos[s]
	case WSLoop:
		ws := uint64(float64(lines) * g.curParam[s])
		if ws == 0 {
			ws = 1
		}
		if g.pos[s] >= ws {
			g.pos[s] = 0
		}
		off = g.pos[s]
		g.pos[s]++
	case RandWS:
		ws := uint64(float64(lines) * g.curParam[s])
		if ws == 0 {
			ws = 1
		}
		off = g.rng.Uint64n(ws)
	default:
		off = g.rng.Uint64n(lines)
	}
	line := addr.LineOf(st.Base) + addr.Line(off)
	write := g.rng.Float64() < st.Spec.WriteFrac
	return trace.Access{Line: line, Write: write, Gap: g.gap}, true
}

// CallpointPools maps each structure's callpoint to a pool id according to
// grouping (a list of structure-index groups), as a slice indexed by
// callpoint: callpoints are 1..len(Structs), so it has len(Structs)+1
// entries. Group i maps to pool i+1; ungrouped structures (and
// NoCallpoint) map to the default pool. This is how a classification
// (manual or WhirlTool) is applied to a trace.
func (w *Workload) CallpointPools(grouping [][]int) []mem.PoolID {
	pools := make([]mem.PoolID, len(w.Structs)+1)
	for gi, group := range grouping {
		for _, si := range group {
			if si < 0 || si >= len(w.Structs) {
				panic(fmt.Sprintf("workloads: bad struct index %d in grouping", si))
			}
			pools[w.Structs[si].CP] = mem.PoolID(gi + 1)
		}
	}
	return pools
}

// ManualGrouping returns the paper's manual pool classification (Table 2),
// or a single all-structures pool if the app was not manually ported.
func (w *Workload) ManualGrouping() [][]int {
	if len(w.Spec.ManualPools) > 0 {
		return w.Spec.ManualPools
	}
	all := make([]int, len(w.Structs))
	for i := range all {
		all[i] = i
	}
	return [][]int{all}
}

// NumPoolsManual returns the number of manual pools (Table 2).
func (w *Workload) NumPoolsManual() int { return len(w.Spec.ManualPools) }

// PoolFootprints returns the per-structure footprint in bytes.
func (w *Workload) PoolFootprints() []uint64 {
	out := make([]uint64, len(w.Structs))
	for i, s := range w.Structs {
		out[i] = s.Spec.Bytes
	}
	return out
}
