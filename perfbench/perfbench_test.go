package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"whirlpool/internal/results"
)

// The self-tests run every workload at the tiny size:
//
//	cd perfbench && go test ./...

// wantMetrics lists, per workload and mode, every metric the issue
// named: each must be printed with its unit or listed as dropped. Every
// metric BENCHMARK.json declares must be printed on every workload.
var wantMetrics = map[string]map[bool][]string{
	"sweep-warm": {
		false: {"setup_s", "minstr_per_s", "max_rss_mb", "error_rate"},
		true:  layerMetrics(),
	},
	"sweep-cold": {
		false: {"setup_s", "minstr_per_s", "max_rss_mb", "error_rate"},
		true:  layerMetrics(),
	},
	"serve-mixed": {
		false: {"setup_s", "max_rss_mb", "error_rate", "read_p50_ms", "read_p99_ms",
			"resubmit_p50_ms", "resubmit_p90_ms", "write_p50_ms", "write_p90_ms"},
		true: layerMetrics(),
	},
}

// layerMetrics is the issue's per-layer metric set; every traced run
// covers all of it.
func layerMetrics() []string {
	out := []string{
		"experiments.prefetch_ms", "experiments.cell_p50_ms", "experiments.cell_p90_ms", "experiments.idle_frac",
		"workloads.gen_ms", "trace.filter_ms", "trace.encode_ms", "trace.cache_mb",
		"trace.bytes_per_access", "trace.open_ms", "trace.decode_ns_per_access",
		"sim.mix.cell_ms",
		"experiments.lookup_ms", "experiments.commit_ms",
		"results.open_ms", "results.rows", "results.file_mb",
		"results.query_us.p50", "results.query_us.p99", "results.put_us.p50", "results.put_us.p99", "results.get_us.p50",
		"server.results.p50_ms", "server.results.p99_ms", "server.sweeps.p50_ms", "server.sweeps.p99_ms",
		"server.jobs.p50_ms", "server.jobs.p99_ms", "server.metrics.p50_ms", "server.metrics.p99_ms",
		"server.shed", "server.job_queue_ms.p50", "server.job_queue_ms.p90",
		"loadgen.late_p99_ms", "obs.overhead_frac", "obs.dropped_spans",
	}
	for _, id := range []string{"snuca-lru", "snuca-drrip", "idealspd", "awasthi", "jigsaw", "whirlpool"} {
		out = append(out, "sim."+id+".cell_ms", "sim."+id+".ns_per_access", "sim."+id+".allocs_per_cell",
			"llc."+id+".tick_ms", "llc."+id+".access_ms")
	}
	for _, id := range []string{"jigsaw", "whirlpool"} {
		out = append(out, "jigsaw."+id+".reconfigs", "jigsaw."+id+".moved_lines", "jigsaw."+id+".bypass_switches")
	}
	return out
}

type printed struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
	dropped map[string]bool
}

// runTiny runs one tiny workload and parses its output.
func runTiny(t *testing.T, workload, golden string, traced bool) printed {
	t.Helper()
	trace := "0"
	if traced {
		trace = "1"
	}
	var out, errOut bytes.Buffer
	code := run([]string{"-workload", workload, "-seed", "1", "-seconds", "1", "-trace", trace,
		"-size", "tiny", "-golden", golden, "-workdir", t.TempDir()}, &out, &errOut)
	if code != 0 {
		t.Fatalf("%s trace=%s: exit %d\nstderr: %s", workload, trace, code, errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var p printed
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &p); err != nil {
		t.Fatalf("%s: last line is not the JSON result: %v\n%s", workload, err, out.String())
	}
	p.dropped = map[string]bool{}
	for _, l := range lines {
		if name, reason, ok := strings.Cut(strings.TrimPrefix(l, "dropped "), ": "); ok && strings.HasPrefix(l, "dropped ") && reason != "" {
			p.dropped[name] = true
		}
	}
	return p
}

// manifest is the metric part of BENCHMARK.json.
type manifest struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestTinyRunsPrintEveryMetric(t *testing.T) {
	m := readManifest(t)
	declared := map[bool]map[string]string{false: {}, true: {}}
	for _, d := range m.EndToEnd {
		declared[false][d.Name] = d.Unit
	}
	for _, d := range m.PerLayer {
		declared[true][d.Name] = d.Unit
	}
	for _, wl := range workloadNames() {
		for _, traced := range []bool{false, true} {
			p := runTiny(t, wl, "golden", traced)
			if !p.Correct || p.Failed != 0 || p.Attempted < 1 {
				t.Errorf("%s trace=%t: correct=%t failed=%d attempted=%d", wl, traced, p.Correct, p.Failed, p.Attempted)
			}
			for _, name := range wantMetrics[wl][traced] {
				if _, ok := p.Metrics[name]; !ok && !p.dropped[name] {
					t.Errorf("%s trace=%t: %s neither printed nor listed as dropped", wl, traced, name)
				}
			}
			for name, unit := range declared[traced] {
				if _, ok := p.Metrics[name]; !ok {
					t.Errorf("%s trace=%t: BENCHMARK.json declares %s, the run did not print it", wl, traced, name)
				} else if got := p.Metrics[name].Unit; got != unit {
					t.Errorf("%s trace=%t: %s has unit %q, BENCHMARK.json says %q", wl, traced, name, got, unit)
				}
			}
			for name := range p.Metrics {
				if _, ok := declared[traced][name]; !ok {
					t.Errorf("%s trace=%t: printed %s, which BENCHMARK.json does not declare for this mode", wl, traced, name)
				}
			}
		}
	}
}

func TestCorruptGoldenRowRaisesErrorRate(t *testing.T) {
	dir := t.TempDir()
	o := options{goldenDir: dir, size: "tiny"}
	if err := regenerateGolden(o, "1", &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	if p := runTiny(t, "sweep-warm", dir, false); !p.Correct || p.Failed != 0 {
		t.Fatalf("fresh golden rows: correct=%t failed=%d", p.Correct, p.Failed)
	}

	// Change one cell's cycle count.
	path := goldenPath(dir, "sweep-warm")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(data), "\n")
	f := strings.Split(lines[1], ",")
	f[5] += "1" // seed, scale, app, scheme, mix, cycles
	lines[1] = strings.Join(f, ",")
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")), 0o666); err != nil {
		t.Fatal(err)
	}
	p := runTiny(t, "sweep-warm", dir, false)
	if p.Correct || p.Failed == 0 {
		t.Fatalf("corrupted golden row went unnoticed: correct=%t failed=%d of %d", p.Correct, p.Failed, p.Attempted)
	}
}

func TestBadArgumentsFail(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope"},
		{"-workload", "sweep-warm", "-trace", "2"},
		{"-workload", "sweep-warm", "-seconds", "0"},
	} {
		var out bytes.Buffer
		if code := run(args, &out, &bytes.Buffer{}); code == 0 || out.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, out.String())
		}
	}
}

func TestServeChecksCatchWrongBodies(t *testing.T) {
	sp := serveSpecFor("tiny")
	fx, err := buildFixture(sp, 1, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	lg := &loadgen{sp: sp, fx: fx}
	corrupt := func(b []byte) []byte {
		return bytes.Replace(b, []byte(`"cycles":`), []byte(`"cycles":1`), 1)
	}
	body := func(lines ...[]byte) []byte {
		return append(append([]byte("["), bytes.Join(lines, []byte(",\n"))...), "]\n"...)
	}
	key := fx.keys[0]
	app := fx.recs[0].App
	var other []byte
	for _, r := range fx.recs {
		if r.App != app {
			other = fx.raw[r.Key]
			break
		}
	}
	var appRecs [][]byte
	for _, r := range fx.recs {
		if r.App == app {
			appRecs = append(appRecs, fx.raw[r.Key])
		}
	}
	byKey := request{path: "key", q: results.Query{Key: key}}
	byApp := request{path: "app", q: results.Query{App: app}}
	for _, c := range []struct {
		name string
		rq   request
		body []byte
		ok   bool
	}{
		{"stored record", byKey, body(fx.raw[key]), true},
		{"changed record", byKey, body(corrupt(fx.raw[key])), false},
		{"app rows", byApp, body(appRecs...), true},
		{"app rows missing one", byApp, body(appRecs[1:]...), false},
		{"foreign app row", byApp, body(append(appRecs, other)...), false},
		{"not JSON", byApp, []byte("[{]\n"), false},
	} {
		if err := lg.checkRead(c.rq, c.body); (err == nil) != c.ok {
			t.Errorf("read %s: err = %v, want ok=%t", c.name, err, c.ok)
		}
	}
	var out jobOutcome
	resubmit := request{class: "resubmit"}
	if err := lg.checkRow("j1", resubmit, fx.row[key], &out); err != nil {
		t.Errorf("stored row rejected: %v", err)
	}
	if err := lg.checkRow("j1", resubmit, corrupt(fx.row[key]), &out); err == nil {
		t.Error("changed resubmit row accepted")
	}
}
