package experiments

import (
	"bytes"
	"encoding/csv"
	"flag"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"testing"

	"whirlpool/internal/workloads"
)

var update = flag.Bool("update", false, "rewrite the golden files in testdata")

// goldenGridPath pins every built-in app × every scheme at scale 0.05
// plus one two-app mix: the rows every trace decode and scheme kernel
// change must reproduce exactly.
var goldenGridPath = filepath.Join("testdata", "golden-grid.csv")

// goldenHeader is the CSV header minus the host-timing column.
var goldenHeader = slices.DeleteFunc(slices.Clone(sweepCSVHeader), func(c string) bool { return c == "wall_ms" })

// goldenRecord renders a row under goldenHeader. Floats use the
// shortest exact representation, so a change in the last bit shows.
func goldenRecord(r SweepRow) []string {
	u := func(v uint64) string { return strconv.FormatUint(v, 10) }
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	return []string{
		r.App, r.Scheme, strconv.FormatBool(r.Mix),
		u(r.Cycles), u(r.Instrs), f(r.IPC), f(r.APKI), f(r.MPKI),
		u(r.LLCAccesses), u(r.Hits), u(r.Misses), u(r.Bypasses),
		f(r.EnergyPJ), f(r.NetworkEnergyPJ), f(r.BankEnergyPJ), f(r.MemoryEnergyPJ),
		r.Err, r.Key,
	}
}

// TestGoldenGrid diffs the full built-in grid against the committed
// golden file cell by cell, reporting the first differing
// app/scheme/column. Path-against-path checks (serial vs parallel, CLI
// vs fleet) cannot catch a change that shifts every path together; this
// can. Regenerate deliberately with
// go test ./internal/experiments -run GoldenGrid -update.
func TestGoldenGrid(t *testing.T) {
	if testing.Short() {
		t.Skip("full-grid sweep is not short")
	}
	h := NewHarness(0.05)
	rows, err := h.Sweep(SweepConfig{
		Apps:  workloads.BuiltinNames(),
		Mixes: []SweepMix{{Name: "omnet+delaunay", Apps: []string{"omnet", "delaunay"}}},
	})
	if err != nil {
		t.Fatalf("Sweep: %v", err)
	}
	got := [][]string{goldenHeader}
	for _, r := range rows {
		got = append(got, goldenRecord(r))
	}
	if *update {
		var buf bytes.Buffer
		w := csv.NewWriter(&buf)
		if err := w.WriteAll(got); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenGridPath, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	f, err := os.Open(goldenGridPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want, err := csv.NewReader(f).ReadAll()
	if err != nil {
		t.Fatalf("%s: %v", goldenGridPath, err)
	}
	if !slices.Equal(want[0], goldenHeader) {
		t.Fatalf("%s header %v, want %v", goldenGridPath, want[0], goldenHeader)
	}
	for i := 1; i < min(len(got), len(want)); i++ {
		for c := range goldenHeader {
			if got[i][c] != want[i][c] {
				t.Fatalf("%s/%s: %s = %s, golden %s", got[i][0], got[i][1], goldenHeader[c], got[i][c], want[i][c])
			}
		}
	}
	if len(got) != len(want) {
		t.Fatalf("grid has %d rows, golden %d", len(got)-1, len(want)-1)
	}
}
