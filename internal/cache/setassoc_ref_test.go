package cache

import (
	"math/rand/v2"
	"testing"

	"whirlpool/internal/addr"
)

// refSetAssoc is the oracle for SetAssoc in LRU mode: one reference LRU
// (refLRU, capacity = ways) per set, selected by the documented
// XOR-fold of three index-width slices of the line address.
type refSetAssoc struct {
	sets  []refLRU
	shift uint
}

func newRefSetAssoc(sets, ways int) *refSetAssoc {
	r := &refSetAssoc{sets: make([]refLRU, sets)}
	for 1<<r.shift < sets {
		r.shift++
	}
	for i := range r.sets {
		r.sets[i].capacity = ways
	}
	return r
}

func (r *refSetAssoc) set(l addr.Line) *refLRU {
	x := uint64(l)
	return &r.sets[(x^x>>r.shift^x>>(2*r.shift))&uint64(len(r.sets)-1)]
}

func (r *refSetAssoc) present(l addr.Line) bool { return r.set(l).find(l) >= 0 }

func (r *refSetAssoc) invalidate(l addr.Line) (present, dirty bool) {
	s := r.set(l)
	i := s.find(l)
	if i < 0 {
		return false, false
	}
	d := s.lines[i].Dirty
	s.lines = append(s.lines[:i], s.lines[i+1:]...)
	return true, d
}

func (r *refSetAssoc) reset() {
	for i := range r.sets {
		r.sets[i].lines = nil
	}
}

// TestSetAssocMatchesReference drives SetAssoc (LRU) and a per-set
// slice reference LRU with the same seeded random mix of Access,
// Writeback, Probe, Invalidate and Reset over several geometries, and
// requires identical hits, evicted lines, eviction dirty bits and
// presence after every op, plus matching Hits/Misses counters. Line
// universes are a few times the capacity, so sets overflow and
// invalidated ways get refilled; a share of far-apart lines exercises
// the XOR-folded set index.
//
// Only LRU is covered. SRRIP/BRRIP/DRRIP victim choice depends on RRPV
// aging, BRRIP's random insertion and DRRIP's set-dueling PSEL, and has
// no reference model simple enough to be an oracle.
func TestSetAssocMatchesReference(t *testing.T) {
	geoms := []struct{ sets, ways int }{
		{1, 4},
		{16, 2},
		{64, 8},
		{8, 16},
	}
	for gi, g := range geoms {
		rng := rand.New(rand.NewPCG(uint64(gi)+1, 11))
		c := NewSetAssoc(uint64(g.sets*g.ways*addr.LineBytes), g.ways, LRU)
		r := newRefSetAssoc(g.sets, g.ways)
		universe := uint64(3 * g.sets * g.ways)
		line := func() addr.Line {
			l := rng.Uint64N(universe)
			if rng.IntN(8) == 0 {
				l |= rng.Uint64N(1<<20) << 24
			}
			return addr.Line(l)
		}
		var hits, misses uint64
		for step := 0; step < 20_000; step++ {
			l := line()
			switch op := rng.IntN(100); {
			case op < 70:
				write := rng.IntN(4) == 0
				hit, ev, evd := c.Access(l, write)
				rhit, rev, revd := r.set(l).access(l, write)
				if hit != rhit || ev != rev || evd != revd {
					t.Fatalf("geom %dx%d step %d: Access(%d) = (%v, %+v, %v), reference (%v, %+v, %v)",
						g.sets, g.ways, step, l, hit, ev, evd, rhit, rev, revd)
				}
				if hit {
					hits++
				} else {
					misses++
				}
			case op < 82:
				if got, want := c.Writeback(l), r.set(l).writeback(l); got != want {
					t.Fatalf("geom %dx%d step %d: Writeback(%d) = %v, reference %v", g.sets, g.ways, step, l, got, want)
				}
			case op < 90:
				if got, want := c.Probe(l), r.present(l); got != want {
					t.Fatalf("geom %dx%d step %d: Probe(%d) = %v, reference %v", g.sets, g.ways, step, l, got, want)
				}
			case op < 99:
				gp, gd := c.Invalidate(l)
				rp, rd := r.invalidate(l)
				if gp != rp || gd != rd {
					t.Fatalf("geom %dx%d step %d: Invalidate(%d) = (%v, %v), reference (%v, %v)",
						g.sets, g.ways, step, l, gp, gd, rp, rd)
				}
			default:
				c.Reset()
				r.reset()
				hits, misses = 0, 0
			}
			// Presence after the op, for its own line and a random one.
			for _, p := range []addr.Line{l, line()} {
				if got, want := c.Probe(p), r.present(p); got != want {
					t.Fatalf("geom %dx%d step %d: line %d present = %v, reference %v", g.sets, g.ways, step, p, got, want)
				}
			}
			if c.Hits != hits || c.Misses != misses {
				t.Fatalf("geom %dx%d step %d: Hits/Misses %d/%d, want %d/%d", g.sets, g.ways, step, c.Hits, c.Misses, hits, misses)
			}
		}
		// Full contents at the end: every resident reference line is
		// present, and the resident counts agree set by set.
		for s := range r.sets {
			resident := 0
			for _, tag := range c.tags[s*g.ways : (s+1)*g.ways] {
				if tag != 0 {
					resident++
				}
			}
			if resident != len(r.sets[s].lines) {
				t.Fatalf("geom %dx%d: set %d holds %d lines, reference %d", g.sets, g.ways, s, resident, len(r.sets[s].lines))
			}
			for _, e := range r.sets[s].lines {
				if !c.Probe(e.Line) {
					t.Fatalf("geom %dx%d: reference line %d missing from SetAssoc", g.sets, g.ways, e.Line)
				}
			}
		}
	}
}
