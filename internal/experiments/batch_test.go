package experiments

import (
	"math/rand/v2"
	"reflect"
	"testing"

	"whirlpool/internal/schemes"
)

// mkJobs builds a fake grid of single-app cells with the given names.
func mkJobs(names ...string) []sweepJob {
	jobs := make([]sweepJob, len(names))
	for i, n := range names {
		jobs[i] = sweepJob{app: n, kind: schemes.KindSNUCALRU}
	}
	return jobs
}

// unitCosts gives every one of n cells the same cost.
func unitCosts(n int) []int64 {
	costs := make([]int64, n)
	for i := range costs {
		costs[i] = 1
	}
	return costs
}

// flatten re-serializes batches for coverage checks.
func flatten(batches [][]int) []int {
	var out []int
	for _, b := range batches {
		out = append(out, b...)
	}
	return out
}

func TestBatchByAppGroups(t *testing.T) {
	// The common grid shape: apps × schemes, cells for one app adjacent.
	jobs := mkJobs("a", "a", "a", "b", "b", "b", "c", "c", "c")
	served := make([]bool, len(jobs))
	batches := batchByApp(jobs, served, unitCosts(len(jobs)), 3)
	if len(batches) != 3 {
		t.Fatalf("got %d batches, want 3 (one per app): %v", len(batches), batches)
	}
	for _, b := range batches {
		name := jobs[b[0]].name()
		for _, i := range b {
			if jobs[i].name() != name {
				t.Fatalf("batch %v mixes apps", b)
			}
		}
	}
	if got := flatten(batches); !reflect.DeepEqual(got, []int{0, 1, 2, 3, 4, 5, 6, 7, 8}) {
		t.Fatalf("coverage broken: %v", got)
	}
}

func TestBatchByAppInterleaved(t *testing.T) {
	// Shard grids can interleave apps; grouping must still collect them.
	jobs := mkJobs("a", "b", "a", "b", "a", "b")
	served := make([]bool, len(jobs))
	batches := batchByApp(jobs, served, unitCosts(len(jobs)), 2)
	if len(batches) != 2 {
		t.Fatalf("got %d batches, want 2: %v", len(batches), batches)
	}
	if !reflect.DeepEqual(batches[0], []int{0, 2, 4}) || !reflect.DeepEqual(batches[1], []int{1, 3, 5}) {
		t.Fatalf("grouping wrong: %v", batches)
	}
}

func TestBatchByAppChunksOneApp(t *testing.T) {
	// One app dominating the grid must still spread across the pool.
	jobs := mkJobs("a", "a", "a", "a", "a", "a", "a", "a")
	served := make([]bool, len(jobs))
	batches := batchByApp(jobs, served, unitCosts(len(jobs)), 4)
	if len(batches) != 4 {
		t.Fatalf("got %d batches, want 4: %v", len(batches), batches)
	}
	for _, b := range batches {
		if len(b) > 2 { // ceil(8/4)
			t.Fatalf("batch %v exceeds the chunk cap", b)
		}
	}
	if got, want := flatten(batches), []int{0, 1, 2, 3, 4, 5, 6, 7}; !reflect.DeepEqual(got, want) {
		t.Fatalf("coverage broken: %v", got)
	}
}

func TestBatchByAppSkipsServed(t *testing.T) {
	jobs := mkJobs("a", "a", "b", "b")
	served := []bool{true, false, false, true}
	batches := batchByApp(jobs, served, unitCosts(len(jobs)), 1)
	if got, want := flatten(batches), []int{1, 2}; !reflect.DeepEqual(got, want) {
		t.Fatalf("served cells leaked into batches: %v", batches)
	}
	if b := batchByApp(jobs, []bool{true, true, true, true}, unitCosts(len(jobs)), 4); b != nil {
		t.Fatalf("fully served grid produced batches: %v", b)
	}
}

// TestBatchByAppCostlyMixFirst: a mix batch that costs more than any
// app batch is queued first, so it overlaps the app batches instead of
// running alone at the tail; the equal-cost app batches behind it keep
// grid order.
func TestBatchByAppCostlyMixFirst(t *testing.T) {
	mix := &SweepMix{Name: "m", Apps: []string{"a", "b"}}
	jobs := mkJobs("a", "a", "a", "b", "b", "b", "c", "c", "c", "d", "d", "d")
	for range 3 {
		jobs = append(jobs, sweepJob{mix: mix, kind: schemes.KindSNUCALRU})
	}
	costs := []int64{10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 20, 20, 20}
	batches := batchByApp(jobs, make([]bool, len(jobs)), costs, 2)
	want := [][]int{{12, 13, 14}, {0, 1, 2}, {3, 4, 5}, {6, 7, 8}, {9, 10, 11}}
	if !reflect.DeepEqual(batches, want) {
		t.Fatalf("batches = %v, want %v", batches, want)
	}
}

// TestBatchByAppEqualCostsKeepGridOrder: the descending-cost sort is
// stable, so batches of equal cost stay in grid first-appearance order
// and the schedule is deterministic.
func TestBatchByAppEqualCostsKeepGridOrder(t *testing.T) {
	jobs := mkJobs("c", "a", "d", "b", "c", "a", "d", "b")
	costs := []int64{5, 5, 9, 9, 5, 5, 9, 9}
	batches := batchByApp(jobs, make([]bool, len(jobs)), costs, 1)
	want := [][]int{{2, 6}, {3, 7}, {0, 4}, {1, 5}} // d, b (18 each), then c, a (10 each)
	if !reflect.DeepEqual(batches, want) {
		t.Fatalf("batches = %v, want %v", batches, want)
	}
}

// TestBatchByAppCostCap checks the scheduler's invariants on seeded
// random grids: every unserved cell appears exactly once and no served
// cell does; a batch holds one app's cells in grid order; a group that
// costs more than ceil(total/workers) is split, every chunk at or
// under that cap unless it is a single cell; and batches are queued in
// descending cost.
func TestBatchByAppCostCap(t *testing.T) {
	rng := rand.New(rand.NewPCG(13, 1))
	names := []string{"a", "b", "c", "d", "e"}
	splits := 0
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.IntN(40)
		jobs := make([]sweepJob, n)
		costs := make([]int64, n)
		served := make([]bool, n)
		var total int64
		for i := range jobs {
			jobs[i] = sweepJob{app: names[rng.IntN(len(names))], kind: schemes.KindSNUCALRU}
			costs[i] = rng.Int64N(1000)
			served[i] = rng.IntN(5) == 0
			if !served[i] {
				total += costs[i]
			}
		}
		workers := 1 + rng.IntN(6)
		limit := max(1, (total+int64(workers)-1)/int64(workers))
		batches := batchByApp(jobs, served, costs, workers)

		seen := make([]int, n)
		prev := int64(-1)
		for _, b := range batches {
			if len(b) == 0 {
				t.Fatalf("trial %d: empty batch in %v", trial, batches)
			}
			var c int64
			for k, i := range b {
				seen[i]++
				c += costs[i]
				if jobs[i].name() != jobs[b[0]].name() {
					t.Fatalf("trial %d: batch %v mixes apps", trial, b)
				}
				if k > 0 && i <= b[k-1] {
					t.Fatalf("trial %d: batch %v is not in grid order", trial, b)
				}
			}
			if c > limit && len(b) > 1 {
				t.Fatalf("trial %d: batch %v costs %d, over the cap %d", trial, b, c, limit)
			}
			if prev >= 0 && c > prev {
				t.Fatalf("trial %d: batch %v (cost %d) queued after a cheaper one (%d)", trial, b, c, prev)
			}
			prev = c
		}
		groups := map[string]int{}
		for i := range jobs {
			want := 1
			if served[i] {
				want = 0
			} else {
				groups[jobs[i].name()]++
			}
			if seen[i] != want {
				t.Fatalf("trial %d: cell %d appears %d times, want %d", trial, i, seen[i], want)
			}
		}
		if len(batches) > len(groups) {
			splits++
		}
	}
	if splits == 0 {
		t.Fatal("no trial split a group; the cap went unexercised")
	}
}

// TestCellCosts pins the cost model: an app cell costs its trace's
// accesses, a mix cell len(apps) × its longest trace, and an app with
// no known size (a failed build) costs 0.
func TestCellCosts(t *testing.T) {
	mix := &SweepMix{Name: "m", Apps: []string{"a", "b", "gone"}}
	jobs := []sweepJob{
		{app: "a", kind: schemes.KindJigsaw},
		{app: "b", kind: schemes.KindWhirlpool},
		{app: "gone", kind: schemes.KindJigsaw},
		{mix: mix, kind: schemes.KindJigsaw},
	}
	got := cellCosts(jobs, map[string]int{"a": 100, "b": 250})
	if want := []int64{100, 250, 0, 750}; !reflect.DeepEqual(got, want) {
		t.Fatalf("cellCosts = %v, want %v", got, want)
	}
}

// TestSweepBatchedRowIdentity crosses worker counts (which change how
// cells batch onto runners) and requires identical rows: batching,
// cost ordering and runner reuse must be invisible in the output. The
// 4-app mix costs most of the grid, so at 2 workers it is split and
// queued ahead of the app batches.
func TestSweepBatchedRowIdentity(t *testing.T) {
	apps := []string{"delaunay", "MIS"}
	kinds := []schemes.Kind{schemes.KindSNUCALRU, schemes.KindWhirlpool}
	mixes := []SweepMix{
		{Name: "mix1", Apps: []string{"delaunay", "MIS"}},
		{Name: "mix4", Apps: []string{"MIS", "delaunay", "MIS", "delaunay"}},
	}
	var base []SweepRow
	for _, workers := range []int{1, 2, 4} {
		h := NewHarness(0.03)
		rows, err := h.Sweep(SweepConfig{
			Apps: apps, Mixes: mixes, Kinds: kinds, Workers: workers,
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range rows {
			rows[i].WallMS = 0 // host timing is the one legitimately varying field
		}
		if base == nil {
			base = rows
			continue
		}
		if !reflect.DeepEqual(base, rows) {
			t.Fatalf("workers=%d changed rows:\n%+v\nvs\n%+v", workers, rows, base)
		}
	}
}
