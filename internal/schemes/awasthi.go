package schemes

import (
	"sort"

	"whirlpool/internal/addr"
	"whirlpool/internal/cache"
	"whirlpool/internal/energy"
	"whirlpool/internal/linetab"
	"whirlpool/internal/llc"
	"whirlpool/internal/noc"
	"whirlpool/internal/stats"
	"whirlpool/internal/trace"
)

// Awasthi implements Awasthi et al. [4]: dynamic hardware-assisted,
// software-controlled page placement. Pages start in the few banks closest
// to the first-touch core; an OS routine periodically migrates the most
// heavily accessed pages to closer banks when the benefit (saved hop
// cycles) outweighs the cost (copying the page), controlled by the
// alphaA/alphaB thresholds swept in Appendix A.
//
// Because placement is per-page and incremental, the scheme can get stuck
// at a small allocation (Sec 3.3): pages concentrate in the initial banks
// and migrations only pile more pages into the close banks, so capacity
// pressure there produces misses that a global reconfiguration would avoid.
type Awasthi struct {
	chip  *noc.Chip
	meter *energy.Meter
	banks []*cache.SetAssoc

	pages     linetab.Table[pageEntry] // keyed by addr.Page
	bankPages []int                    // assigned pages per bank (occupancy tracking)
	epoch     uint64
	last      uint64

	// alphaA scales migration cost against benefit; alphaB caps how much
	// of a bank's capacity migrated-in pages may claim per epoch.
	alphaA float64
	alphaB float64

	Hits, Misses  uint64
	Migrations    uint64
	WritebacksMem uint64
}

// pageEntry is one touched page: its home bank plus the heat the
// migration runtime ranks it by (demand accesses since the last decay,
// and the core that made the latest one). A count-0 entry is a page with
// no recent heat; its next demand access overwrites core.
type pageEntry struct {
	bank  int32
	count uint32
	core  uint8
}

// initialBanks is how many nearest banks first-touch allocation spreads
// over (Awasthi's initial allocation; Sec 4.5 notes it is four banks).
const initialBanks = 4

// NewAwasthi builds the scheme with the best-performing thresholds from
// our parameter sweep (TestAwasthiParamSweep exercises alternatives).
func NewAwasthi(chip *noc.Chip, meter *energy.Meter, epochCycles uint64) *Awasthi {
	a := &Awasthi{
		chip:      chip,
		meter:     meter,
		bankPages: make([]int, chip.NBanks()),
		epoch:     epochCycles,
		alphaA:    1.0,
		alphaB:    0.25,
	}
	for b := 0; b < chip.NBanks(); b++ {
		a.banks = append(a.banks, cache.NewSetAssoc(chip.BankBytes, 16, cache.LRU))
	}
	return a
}

// SetAlphas overrides the migration thresholds (parameter sweep support).
func (a *Awasthi) SetAlphas(alphaA, alphaB float64) {
	a.alphaA, a.alphaB = alphaA, alphaB
}

// Name implements llc.LLC.
func (a *Awasthi) Name() string { return "Awasthi" }

// page returns l's page entry, homing the page on first touch in one of
// the initialBanks banks closest to core, hashed by page. The pointer is
// valid until the next page insert.
func (a *Awasthi) page(core int, l addr.Line) *pageEntry {
	pg := addr.PageOfLine(l)
	e, ok := a.pages.Insert(uint64(pg))
	if !ok {
		near := a.chip.Mesh.BanksByDistance(core)
		b := near[stats.Hash64(uint64(pg))%initialBanks]
		e.bank = int32(b)
		a.bankPages[b]++
	}
	return e
}

// occupancy returns bank b's assigned-page load relative to its capacity.
func (a *Awasthi) occupancy(b int) float64 {
	return float64(a.bankPages[b]) * addr.LinesPerPage / float64(a.chip.BankLines())
}

// score is the placement cost of a page for a core at a bank: network
// distance plus a capacity-pressure penalty (the alphaB knob trades
// proximity against contention — Awasthi et al.'s capacity management).
func (a *Awasthi) score(core, bank int) float64 {
	m := a.chip.Mesh
	occ := a.occupancy(bank)
	pressure := 0.0
	if occ > 1 {
		// Overcommitted banks thrash: penalize by expected extra misses.
		pressure = (occ - 1) * float64(noc.MemLatency)
	}
	return float64(2*noc.HopLatency(m.CoreBankHops(core, bank))) + pressure/a.alphaB
}

// Access implements llc.LLC.
func (a *Awasthi) Access(core int, acc trace.LLCAccess) (uint64, llc.Outcome) {
	m := a.chip.Mesh
	pe := a.page(core, acc.Line)
	bank := int(pe.bank)
	arr := a.banks[bank]
	if acc.Writeback {
		a.meter.AddHops(m.CoreBankHops(core, bank))
		if arr.Writeback(acc.Line) {
			a.meter.AddTagProbe(1)
		} else {
			a.meter.AddTagProbe(1)
			a.meter.AddDRAM(1)
			a.meter.AddHops(m.BankMemHops(bank))
			a.WritebacksMem++
		}
		return 0, llc.Miss
	}
	// Track page heat for the migration runtime.
	pe.count++
	pe.core = uint8(core)

	hops := m.CoreBankHops(core, bank)
	lat := 2*noc.HopLatency(hops) + noc.BankLatency
	a.meter.AddBank(1)
	a.meter.AddHops(hops)
	hit, ev, evicted := arr.Access(acc.Line, acc.Write)
	if hit {
		a.Hits++
		return lat, llc.Hit
	}
	a.Misses++
	memHops := m.BankMemHops(bank)
	lat += noc.MemLatency + 2*noc.HopLatency(memHops)
	a.meter.AddDRAM(1)
	a.meter.AddHops(memHops)
	if evicted && ev.Dirty {
		a.meter.AddDRAM(1)
		a.WritebacksMem++
	}
	return lat, llc.Miss
}

// Tick implements llc.LLC: the periodic page-migration routine.
func (a *Awasthi) Tick(now uint64) {
	if now-a.last < a.epoch {
		return
	}
	a.last = now
	a.migrate()
}

// migrate moves the hottest pages toward their accessing core.
func (a *Awasthi) migrate() {
	type hot struct {
		pg    addr.Page
		count uint32
		core  uint8
	}
	var hots []hot
	a.pages.Range(func(pg uint64, e *pageEntry) {
		if e.count >= 16 {
			hots = append(hots, hot{addr.Page(pg), e.count, e.core})
		}
	})
	sort.Slice(hots, func(i, j int) bool {
		if hots[i].count != hots[j].count {
			return hots[i].count > hots[j].count
		}
		return hots[i].pg < hots[j].pg
	})
	// Per-bank inbound budget this epoch (alphaB of bank capacity).
	budget := make([]int, a.chip.NBanks())
	maxIn := int(a.alphaB * float64(a.chip.BankLines()) / addr.LinesPerPage)
	for b := range budget {
		budget[b] = maxIn
	}
	const maxMigrations = 256
	migrated := 0
	m := a.chip.Mesh
	for _, h := range hots {
		if migrated >= maxMigrations {
			break
		}
		core := int(h.core)
		cur := int(a.pages.Ptr(uint64(h.pg)).bank)
		curScore := a.score(core, cur)
		// Find the bank with the best distance/pressure score.
		best, bestScore := cur, curScore
		for _, b := range m.BanksByDistance(core) {
			if b == cur || budget[b] <= 0 {
				continue
			}
			if s := a.score(core, b); s < bestScore {
				best, bestScore = b, s
			}
		}
		if best == cur {
			continue
		}
		// Benefit: accesses x saved score; cost: copying the page.
		benefit := float64(h.count) * (curScore - bestScore)
		cost := a.alphaA * float64(addr.LinesPerPage) *
			float64(2*noc.HopLatency(m.Hops2(cur, best)))
		if benefit <= cost {
			continue
		}
		a.movePage(h.pg, cur, best)
		budget[best]--
		migrated++
	}
	// Decay heat so stale pages do not dominate future epochs.
	a.pages.Range(func(_ uint64, e *pageEntry) { e.count /= 2 })
}

// movePage re-homes a page: resident lines are copied to the new bank
// (charged as reads+writes+hops) and invalidated in the old one.
func (a *Awasthi) movePage(pg addr.Page, from, to int) {
	a.Migrations++
	a.pages.Ptr(uint64(pg)).bank = int32(to)
	a.bankPages[from]--
	a.bankPages[to]++
	first := addr.FirstLine(pg)
	hops := a.chip.Mesh.Hops2(from, to)
	moved := 0
	for i := 0; i < addr.LinesPerPage; i++ {
		l := first + addr.Line(i)
		if present, dirty := a.banks[from].Invalidate(l); present {
			moved++
			_, ev, evd := a.banks[to].Access(l, dirty)
			if evd && ev.Dirty {
				a.meter.AddDRAM(1)
				a.WritebacksMem++
			}
		}
	}
	a.meter.AddBank(2 * float64(moved))
	a.meter.AddHops(moved * hops)
}

var _ llc.LLC = (*Awasthi)(nil)
