package experiments

import (
	"testing"

	"whirlpool/internal/schemes"
	"whirlpool/internal/sim"
)

// cellBenchApps span the kernels' regimes: delaunay's pointer-heavy mix,
// mcf's large irregular footprint, and lbm's streaming grids.
var cellBenchApps = []string{"delaunay", "mcf", "lbm"}

// BenchmarkCell is the per-scheme kernel benchmark: one single-app sweep
// cell per op for every registered scheme on cellBenchApps. Traces come
// from a warm on-disk trace cache, so replay takes the mapped decode
// path a warm sweep takes, and one sim.Runner serves every op the way a
// sweep worker's does; an op is scheme construction plus the warm-up
// and measured passes. ns/access divides by both passes' accesses.
func BenchmarkCell(b *testing.B) {
	dir := b.TempDir()
	fill := NewHarness(0.05)
	fill.CacheDir = dir
	h := NewHarness(0.05)
	h.CacheDir = dir
	for _, app := range cellBenchApps {
		if _, err := fill.AppErr(app); err != nil {
			b.Fatal(err)
		}
		if _, err := h.AppErr(app); err != nil {
			b.Fatal(err)
		}
	}
	if s := h.CacheStats(); s.Builds != 0 {
		b.Fatalf("benchmark traces were regenerated, not mapped from the warm cache: %+v", s)
	}
	runner := sim.NewRunner()
	for _, kind := range schemes.AllKinds() {
		for _, app := range cellBenchApps {
			b.Run(kind.ID()+"/"+app, func(b *testing.B) {
				replayed := 2 * float64(h.App(app).Tr.NumAccesses())
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if r := h.RunSingle(app, kind, RunOptions{Runner: runner}); r.Demand == 0 {
						b.Fatal("empty run")
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(replayed*float64(b.N)), "ns/access")
			})
		}
	}
}
