package jigsaw

import (
	"whirlpool/internal/energy"
	"whirlpool/internal/llc"
	"whirlpool/internal/noc"
	"whirlpool/internal/trace"
)

// Config parameterizes a Dnuca instance. Jigsaw and Whirlpool are the same
// engine with different classifiers and bypass settings.
type Config struct {
	Chip     *noc.Chip
	Meter    *energy.Meter
	Classify llc.Classifier
	// SchemeName is reported by Name() ("Jigsaw", "Whirlpool", ...).
	SchemeName string
	// BypassEnabled allows single-threaded VCs to bypass the LLC.
	BypassEnabled bool
	// ReconfigCycles is the reconfiguration period (scaled-down analogue
	// of the paper's 25ms).
	ReconfigCycles uint64
	// Gran is the allocation granularity in lines (default: 1/4 bank).
	Gran uint64
	// MissCurveSizing sizes VCs with miss curves instead of latency
	// curves (an ablation; the paper argues latency curves are the point).
	MissCurveSizing bool
	// NoTrading disables the trading placement pass (ablation).
	NoTrading bool
}

// Dnuca is the shared-baseline D-NUCA engine behind both Jigsaw and
// Whirlpool. It satisfies llc.LLC.
type Dnuca struct {
	cfg Config
	// vcs is the VC translation table: vcs[core+1][pool], row 0 holding
	// the SharedVC VCs. Iterating it row by row visits VCs in (core,
	// pool) order, the stable order every reconfiguration uses.
	vcs  [][]*VC
	nvcs int

	lastReconfig uint64
	// Stats.
	Reconfigs       uint64
	MovedLines      uint64
	BypassSwitch    uint64
	DemandAccs      uint64
	Hits, Misses    uint64
	Bypasses        uint64
	WritebacksMem   uint64
	ResizeEvictions uint64
}

// New creates the engine. Callers pick Jigsaw vs Whirlpool purely through
// Config (classifier + name + bypass flag).
func New(cfg Config) *Dnuca {
	if cfg.Gran == 0 {
		cfg.Gran = cfg.Chip.BankLines() / 4
	}
	if cfg.ReconfigCycles == 0 {
		cfg.ReconfigCycles = 2_000_000
	}
	if cfg.SchemeName == "" {
		cfg.SchemeName = "Jigsaw"
	}
	return &Dnuca{cfg: cfg}
}

// Name implements llc.LLC.
func (d *Dnuca) Name() string { return d.cfg.SchemeName }

func (d *Dnuca) vc(key llc.VCKey) *VC {
	r, p := int(key.Core)+1, int(key.Pool)
	if r < len(d.vcs) && p < len(d.vcs[r]) {
		if v := d.vcs[r][p]; v != nil {
			return v
		}
	}
	return d.addVC(key)
}

// addVC creates key's VC, growing the table to reach its slot.
func (d *Dnuca) addVC(key llc.VCKey) *VC {
	r, p := int(key.Core)+1, int(key.Pool)
	for len(d.vcs) <= r {
		d.vcs = append(d.vcs, nil)
	}
	for len(d.vcs[r]) <= p {
		d.vcs[r] = append(d.vcs[r], nil)
	}
	v := newVC(key, d.cfg.Chip, d.cfg.Gran)
	d.vcs[r][p] = v
	d.nvcs++
	return v
}

// Access implements llc.LLC.
func (d *Dnuca) Access(core int, a trace.LLCAccess) (uint64, llc.Outcome) {
	key := d.cfg.Classify(core, a.Line)
	v := d.vc(key)
	m := d.cfg.Chip.Mesh
	mt := d.cfg.Meter

	if a.Writeback {
		if v.Bypassed {
			// Bypassed VC: writebacks go straight to memory.
			mt.AddDRAM(1)
			mt.AddHops(m.CoreMemHops(core))
			d.WritebacksMem++
			return 0, llc.Miss
		}
		bank := v.Bank(a.Line)
		mt.AddHops(m.CoreBankHops(core, bank))
		if v.Store.Writeback(a.Line) {
			mt.AddTagProbe(1)
		} else {
			// Not resident: forward to memory.
			mt.AddTagProbe(1)
			mt.AddDRAM(1)
			mt.AddHops(m.BankMemHops(bank))
			d.WritebacksMem++
		}
		return 0, llc.Miss
	}

	d.DemandAccs++
	v.Mon.Access(core, a.Line, a.Write)

	if v.Bypassed {
		// Single lookup-free path to memory: the VTB bypass bit means no
		// bank is consulted at all.
		d.Bypasses++
		mt.AddDRAM(1)
		mt.AddHops(2 * m.CoreMemHops(core)) // request + line back
		return noc.MemLatency + 2*noc.HopLatency(m.CoreMemHops(core)), llc.Bypass
	}

	bank := v.Bank(a.Line)
	hops := m.CoreBankHops(core, bank)
	lat := 2*noc.HopLatency(hops) + noc.BankLatency
	mt.AddBank(1)
	mt.AddHops(hops) // line (or request) traverses core<->bank

	hit, ev, evicted := v.Store.Access(a.Line, a.Write)
	if hit {
		d.Hits++
		return lat, llc.Hit
	}
	d.Misses++
	memHops := m.BankMemHops(bank)
	lat += noc.MemLatency + 2*noc.HopLatency(memHops)
	mt.AddDRAM(1)
	mt.AddHops(memHops) // fill from the controller to the bank
	if evicted && ev.Dirty {
		mt.AddDRAM(1)
		mt.AddHops(m.BankMemHops(v.Bank(ev.Line)))
		d.WritebacksMem++
	}
	return lat, llc.Miss
}

// Tick implements llc.LLC: runs the OS reconfiguration runtime
// periodically.
func (d *Dnuca) Tick(now uint64) {
	if now-d.lastReconfig < d.cfg.ReconfigCycles {
		return
	}
	d.lastReconfig = now
	d.Reconfigure()
}

// Reconfigure performs one full reconfiguration: refresh placement
// centroids, size VCs from their monitors, place them, and apply the new
// configuration (resizing stores, flipping bypass bits, charging data
// movement for migrated lines).
func (d *Dnuca) Reconfigure() {
	d.Reconfigs++
	vcs := d.VCs()
	if len(vcs) == 0 {
		return
	}
	chip := d.cfg.Chip
	for _, v := range vcs {
		v.lastAccesses = v.Mon.Accesses
		// Refresh centroid weights from observed per-core accesses
		// (EWMA to damp noise).
		var tot uint64
		for _, c := range v.Mon.CoreAccess {
			tot += c
		}
		if tot > 0 {
			for c := range v.coreW {
				obs := float64(v.Mon.CoreAccess[c]) / float64(tot)
				v.coreW[c] = 0.5*v.coreW[c] + 0.5*obs
			}
			v.recomputeDistances(chip)
		}
	}

	allocs := sizeVCs(chip, vcs, d.cfg.Gran, d.cfg.BypassEnabled, d.cfg.MissCurveSizing)

	// Snapshot old shares to charge migration costs.
	old := make([][]uint64, len(allocs))
	for i, a := range allocs {
		old[i] = append([]uint64(nil), a.vc.Shares...)
	}

	placeVCs(chip, allocs, d.cfg.Gran, !d.cfg.NoTrading)

	for i := range allocs {
		a := &allocs[i]
		v := a.vc
		newBypass := a.bypass && a.buckets == 0
		if newBypass != v.Bypassed {
			d.BypassSwitch++
			if newBypass {
				// Entering bypass: invalidate the VC in the LLC to keep
				// coherence (Sec 3.2); dirty lines go to memory.
				lines, dirty := v.Store.InvalidateAll()
				d.cfg.Meter.AddDRAM(float64(dirty))
				d.cfg.Meter.AddCtrlHops(lines / 8) // bulk invalidation traffic
				d.WritebacksMem += uint64(dirty)
			}
			v.Bypassed = newBypass
		}
		newCap := uint64(a.buckets) * d.cfg.Gran
		for _, ev := range v.Store.Resize(int(newCap)) {
			d.ResizeEvictions++
			if ev.Dirty {
				d.cfg.Meter.AddDRAM(1)
				d.WritebacksMem++
			}
		}
		// Lines whose bank changed are migrated lazily by Jigsaw's
		// incremental scan (the paper measures <0.4% of system cycles
		// and negligible energy for reconfigurations); charge control
		// traffic for the remapped fraction.
		var moved, tot uint64
		for b := range v.Shares {
			n, o := v.Shares[b], old[i][b]
			if n > o {
				moved += n - o
			}
			tot += n
		}
		if tot > 0 && v.Store.Size() > 0 {
			frac := float64(moved) / float64(tot)
			ml := float64(v.Store.Size()) * frac
			d.MovedLines += uint64(ml)
			d.cfg.Meter.AddCtrlHops(int(ml / 8)) // bulk remap messages
		}
		v.Mon.ResetInterval()
	}
}

// VCs returns the engine's virtual caches in stable (core, pool) order,
// SharedVC first (for introspection: placement maps, allocation time
// series).
func (d *Dnuca) VCs() []*VC {
	out := make([]*VC, 0, d.nvcs)
	for _, row := range d.vcs {
		for _, v := range row {
			if v != nil {
				out = append(out, v)
			}
		}
	}
	return out
}

// BankOwnerMap returns, for each bank, the VC holding the plurality of its
// lines (-1 for unused banks) — the data behind the Fig 3-5 placement
// maps. The returned indices follow VCs() order.
func (d *Dnuca) BankOwnerMap() []int {
	vcs := d.VCs()
	nb := d.cfg.Chip.NBanks()
	owner := make([]int, nb)
	for b := 0; b < nb; b++ {
		owner[b] = -1
		var best uint64
		for i, v := range vcs {
			if v.Shares[b] > best {
				best = v.Shares[b]
				owner[b] = i
			}
		}
	}
	return owner
}

// Allocations returns each VC's current allocation in lines, in VCs()
// order (Fig 11's time series).
func (d *Dnuca) Allocations() []uint64 {
	vcs := d.VCs()
	out := make([]uint64, len(vcs))
	for i, v := range vcs {
		out[i] = v.TotalShare()
	}
	return out
}

// AvgAllocDistance returns the intensity-weighted average hop distance of
// each VC's allocation, in VCs() order (the y-ordering of Fig 11a).
func (d *Dnuca) AvgAllocDistance() []float64 {
	vcs := d.VCs()
	out := make([]float64, len(vcs))
	for i, v := range vcs {
		var lines uint64
		var sum float64
		for b, s := range v.Shares {
			lines += s
			sum += float64(s) * v.hops[b]
		}
		if lines > 0 {
			out[i] = sum / float64(lines)
		}
	}
	return out
}

var _ llc.LLC = (*Dnuca)(nil)
