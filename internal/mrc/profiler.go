package mrc

import (
	"sort"

	"whirlpool/internal/addr"
	"whirlpool/internal/linetab"
	"whirlpool/internal/stats"
)

// Profiler measures LRU stack distances over a line-address stream and
// produces miss-rate curves (Mattson's algorithm with an order-statistic
// Fenwick tree, O(log n) per access).
//
// With SampleShift > 0 the profiler hash-samples 1/2^shift of all lines and
// scales distances and counts back up — the same trick hardware GMONs and
// RapidMRC use — cutting time and memory by the sampling factor while
// preserving curve shape.
type Profiler struct {
	gran        uint64 // lines per curve bucket
	buckets     int
	sampleShift uint

	last  linetab.Table[int32] // line -> time position in BIT
	bit   []int32              // Fenwick tree: 1 at current last-access positions
	time  int32                // next time position (1-based)
	live  int32                // number of marked positions (= distinct lines)
	histo []uint64             // histo[i]: distances in [i*gran, (i+1)*gran), post-scaling
	over  uint64               // distances beyond the curve domain
	cold  uint64               // first-touch accesses
	acc   uint64               // total accesses observed (pre-sampling)
}

// NewProfiler creates a profiler producing curves with the given bucket
// granularity (in lines) and bucket count. sampleShift of 6 samples 1/64
// of lines; 0 profiles exactly.
func NewProfiler(gran uint64, buckets int, sampleShift uint) *Profiler {
	if gran == 0 || buckets <= 0 {
		panic("mrc: bad profiler geometry")
	}
	p := &Profiler{
		gran:        gran,
		buckets:     buckets,
		sampleShift: sampleShift,
		histo:       make([]uint64, buckets),
	}
	p.grow(1 << 16)
	return p
}

func (p *Profiler) grow(n int) {
	bit := make([]int32, n+1)
	p.bit = bit
}

// bitAdd adds v at position i (1-based).
func (p *Profiler) bitAdd(i, v int32) {
	for ; int(i) < len(p.bit); i += i & (-i) {
		p.bit[i] += v
	}
}

// bitSum returns the prefix sum over [1, i].
func (p *Profiler) bitSum(i int32) int32 {
	s := int32(0)
	for ; i > 0; i -= i & (-i) {
		s += p.bit[i]
	}
	return s
}

// compact renumbers live positions 1..live preserving order, resetting the
// time counter. Called when the BIT fills up.
func (p *Profiler) compact() {
	type ent struct {
		line uint64
		t    int32
	}
	ents := make([]ent, 0, p.last.Len())
	p.last.Range(func(l uint64, t *int32) {
		ents = append(ents, ent{l, *t})
	})
	sort.Slice(ents, func(i, j int) bool { return ents[i].t < ents[j].t })
	n := len(p.bit) - 1
	if int(p.live)*2 > n {
		n *= 2
	}
	p.grow(n)
	p.time = 0
	for _, e := range ents {
		p.time++
		p.last.Put(e.line, p.time)
		p.bitAdd(p.time, 1)
	}
}

// sampled reports whether line l is in the sampled subset.
func (p *Profiler) sampled(l addr.Line) bool {
	if p.sampleShift == 0 {
		return true
	}
	return stats.Hash64(uint64(l))&((1<<p.sampleShift)-1) == 0
}

// Access records one access to line l.
func (p *Profiler) Access(l addr.Line) {
	p.acc++
	if !p.sampled(l) {
		return
	}
	scale := uint64(1) << p.sampleShift
	// tp stays valid across compact, which only rewrites existing keys.
	tp := p.last.Ptr(uint64(l))
	if tp != nil {
		// Distance = number of distinct lines accessed strictly after t.
		t := *tp
		d := uint64(p.live-p.bitSum(t)) * scale
		b := d / p.gran
		if b >= uint64(p.buckets) {
			p.over++
		} else {
			p.histo[b]++
		}
		p.bitAdd(t, -1)
		p.live--
	} else {
		p.cold++
	}
	p.time++
	if int(p.time) >= len(p.bit) {
		p.compact()
		p.time++
	}
	if tp == nil {
		tp, _ = p.last.Insert(uint64(l))
	}
	*tp = p.time
	p.bitAdd(p.time, 1)
	p.live++
}

// Accesses returns the raw (pre-sampling) access count.
func (p *Profiler) Accesses() uint64 { return p.acc }

// Curve converts the recorded histogram into a miss curve: misses at
// capacity c = cold + (distances >= c). Sampled counts are scaled back up.
func (p *Profiler) Curve() Curve {
	scale := float64(uint64(1) << p.sampleShift)
	c := Curve{Gran: p.gran, M: make([]float64, p.buckets+1), Accesses: float64(p.acc)}
	tail := (float64(p.cold) + float64(p.over)) * scale
	c.M[p.buckets] = tail
	for i := p.buckets - 1; i >= 0; i-- {
		c.M[i] = c.M[i+1] + float64(p.histo[i])*scale
	}
	return c
}

// Reset clears the distance histogram and access counters but keeps the
// recency state, so consecutive intervals see warm history (matching
// periodic hardware monitors that only reset counters).
func (p *Profiler) Reset() {
	for i := range p.histo {
		p.histo[i] = 0
	}
	p.over, p.cold, p.acc = 0, 0, 0
}

// HardReset clears everything including recency state.
func (p *Profiler) HardReset() {
	p.Reset()
	p.last.Reset()
	p.grow(1 << 16)
	p.time, p.live = 0, 0
}
