package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"whirlpool/internal/obs"
)

var update = flag.Bool("update", false, "rewrite the golden files in testdata")

// syntheticSweep is a two-worker sweep trace with a scheduler tail: one
// worker runs two 40 ms mix cells back to back (10–90 ms) while the
// other finishes its 30 ms and 20 ms cells at 60 ms and then idles.
const syntheticSweep = `{"trace":"0af7651916cd43dd8448eb211c80319c","span":"0000000000000001","name":"job","start_us":1700000000000000,"dur_us":90000,"attrs":{"id":"j1","cells":4}}
{"trace":"0af7651916cd43dd8448eb211c80319c","span":"0000000000000002","parent":"0000000000000001","name":"trace.load","start_us":1700000000000000,"dur_us":5000,"attrs":{"app":"delaunay","mmap":true}}
{"trace":"0af7651916cd43dd8448eb211c80319c","span":"0000000000000010","parent":"0000000000000001","name":"sweep.cell","start_us":1700000000010000,"dur_us":40000,"attrs":{"app":"mix","scheme":"jigsaw"}}
{"trace":"0af7651916cd43dd8448eb211c80319c","span":"0000000000000011","parent":"0000000000000010","name":"sim.run","start_us":1700000000010000,"dur_us":39000,"attrs":{"app":"mix","scheme":"jigsaw","cells":2,"accesses":400000}}
{"trace":"0af7651916cd43dd8448eb211c80319c","span":"0000000000000020","parent":"0000000000000001","name":"sweep.cell","start_us":1700000000050000,"dur_us":40000,"attrs":{"app":"mix","scheme":"whirlpool"}}
{"trace":"0af7651916cd43dd8448eb211c80319c","span":"0000000000000030","parent":"0000000000000001","name":"sweep.cell","start_us":1700000000010000,"dur_us":30000,"attrs":{"app":"delaunay","scheme":"jigsaw"}}
{"trace":"0af7651916cd43dd8448eb211c80319c","span":"0000000000000040","parent":"0000000000000001","name":"sweep.cell","start_us":1700000000040000,"dur_us":20000,"attrs":{"app":"delaunay","scheme":"snuca-lru"}}
`

// TestRenderSpansGolden pins the whole spans report — waterfall,
// aggregates, the sweep.cell utilization line and the critical path —
// on a synthetic trace. Utilization here: 4 cells, peak overlap 2,
// window 10–90 ms, busy 130 ms, so idle = 1 - 130/(2×80) = 0.1875.
// Regenerate with go test ./cmd/whirltool -run Golden -update.
func TestRenderSpansGolden(t *testing.T) {
	spans, err := obs.ParseSpans(strings.NewReader(syntheticSweep))
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := renderSpans(&got, spans, 40); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "spans.golden")
	if *update {
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("spans report differs from %s:\n--- got\n%s--- want\n%s", golden, got.String(), want)
	}
}

// TestCellUtilization checks the overlap count on its own: cells that
// touch end-to-start do not overlap, and a trace without sweep.cell
// spans reports nothing.
func TestCellUtilization(t *testing.T) {
	spans, err := obs.ParseSpans(strings.NewReader(syntheticSweep))
	if err != nil {
		t.Fatal(err)
	}
	u, ok := cellUtilization(spans)
	if !ok || u.concurrency != 2 || u.window.Milliseconds() != 80 || u.busy.Milliseconds() != 130 || u.idle != 0.1875 {
		t.Fatalf("utilization = %+v (ok %v), want concurrency 2, window 80ms, busy 130ms, idle 0.1875", u, ok)
	}
	if _, ok := cellUtilization(spans[:2]); ok {
		t.Fatal("trace without sweep.cell spans reported a utilization")
	}
}
