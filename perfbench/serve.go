package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"whirlpool/internal/experiments"
	"whirlpool/internal/results"
	"whirlpool/internal/server"
	"whirlpool/internal/workloads"
)

// serveSpec sizes serve-mixed.
type serveSpec struct {
	// The store is filled with every app x scheme cell at fixtureScale
	// for fixtureSeeds seeds; write requests simulate one fresh cell at
	// the same scale.
	fixtureScale float64
	fixtureSeeds int
	apps         []string
	// resubmitApps is the app count of one resubmitted grid (crossed
	// with every scheme).
	resubmitApps int
	setupReps    int
	// Offered rates in requests per second, set well below the knee of
	// this daemon on two cores. At 6.2 writes/s a 30 s run's 186 writes
	// walk the whole 31 x 6 app x scheme grid once, so the median write
	// throughput does not depend on which cells the seed drew; each
	// write holds the FIFO job runner ~10 ms, about 6% of its time.
	readRate, resubmitRate, writeRate, metricsRate float64
}

func serveSpecFor(size string) serveSpec {
	s := serveSpec{
		fixtureScale: 0.005,
		fixtureSeeds: 6,
		apps:         workloads.BuiltinNames(),
		resubmitApps: 4,
		setupReps:    9,
		readRate:     150,
		resubmitRate: 10,
		writeRate:    6.2,
		metricsRate:  1,
	}
	if size == "tiny" {
		s.fixtureSeeds, s.apps, s.resubmitApps, s.setupReps = 1, s.apps[:4], 2, 2
	}
	return s
}

// fixtureSeed and writeSeed derive the harness seeds serve-mixed uses
// from the benchmark seed. They are never 0 (the daemon reads a zero
// seed as "the default seed"), and write seeds never repeat a fixture
// seed, so every write simulates.
func fixtureSeed(seed uint64, k int) uint64 { return seed*1_000_000 + 1_000 + uint64(k) }

func writeSeed(seed uint64, phase, n int) uint64 {
	return seed*1_000_000 + 500_000 + uint64(phase)*100_000 + uint64(n)
}

// fixture is the store content serve-mixed starts from.
type fixture struct {
	recs []results.Record
	// raw maps each cell key to its record's JSON line as the store
	// serves it, row to the record's row JSON.
	raw, row map[string][]byte
	// count maps "app" and "app/scheme" to the number of fixture rows.
	count map[string]int
	keys  []string
	seeds []uint64
}

// buildFixture simulates the store's rows: every app x scheme cell for
// each fixture seed, through Sweep with a result store, exactly as
// whirld jobs commit them.
func buildFixture(sp serveSpec, seed uint64, dir string) (*fixture, error) {
	st, err := results.Open(dir)
	if err != nil {
		return nil, err
	}
	defer st.Close()
	var seeds []uint64
	cells := 0
	for k := 0; k < sp.fixtureSeeds; k++ {
		h := experiments.NewHarness(sp.fixtureScale)
		h.Seed = fixtureSeed(seed, k)
		seeds = append(seeds, h.Seed)
		rows, err := h.Sweep(experiments.SweepConfig{Apps: sp.apps, Workers: workers(), Store: st})
		if err != nil {
			return nil, err
		}
		for _, r := range rows {
			if err := rowInvariantErr(r); err != nil {
				return nil, fmt.Errorf("fixture: %w", err)
			}
		}
		cells += len(rows)
	}
	recs := st.Query(results.Query{})
	if len(recs) != cells {
		return nil, fmt.Errorf("fixture store holds %d records for %d cells", len(recs), cells)
	}
	return newFixture(recs, seeds)
}

// newFixture indexes the fixture records for the load's checks.
func newFixture(recs []results.Record, seeds []uint64) (*fixture, error) {
	fx := &fixture{recs: recs, seeds: seeds,
		raw: map[string][]byte{}, row: map[string][]byte{}, count: map[string]int{}}
	for _, rec := range recs {
		line, err := json.Marshal(rec)
		if err != nil {
			return nil, err
		}
		fx.raw[rec.Key], fx.row[rec.Key] = line, rec.Row
		fx.keys = append(fx.keys, rec.Key)
		fx.count[rec.App]++
		fx.count[rec.App+"/"+rec.Scheme]++
	}
	return fx, nil
}

// daemon is an in-process whirld on a loopback port.
type daemon struct {
	store *results.Store
	srv   *server.Server
	hs    *http.Server
	base  string
	done  chan struct{}
}

// startDaemon fills an empty store in dir with recs, reopens it (the
// load path a restarted daemon takes), and serves whirld on it with the
// default single job runner and one sweep worker per CPU. It returns
// once /healthz answers.
func startDaemon(dir string, recs []results.Record) (*daemon, error) {
	st, err := results.Open(dir)
	if err != nil {
		return nil, err
	}
	for _, r := range recs {
		if err := st.Put(r); err != nil {
			st.Close()
			return nil, err
		}
	}
	if err := st.Close(); err != nil {
		return nil, err
	}
	if st, err = results.Open(dir); err != nil {
		return nil, err
	}
	if st.Len() != len(recs) {
		st.Close()
		return nil, fmt.Errorf("reopened store holds %d records, want %d", st.Len(), len(recs))
	}
	srv, err := server.New(server.Config{Store: st, Workers: workers(), Version: "perfbench"})
	if err != nil {
		st.Close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		st.Close()
		return nil, err
	}
	d := &daemon{store: st, srv: srv, hs: &http.Server{Handler: srv.Handler()},
		base: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(d.done)
		_ = d.hs.Serve(ln) // returns http.ErrServerClosed after Shutdown
	}()
	tr := &http.Transport{}
	defer tr.CloseIdleConnections()
	resp, err := (&http.Client{Transport: tr, Timeout: 10 * time.Second}).Get(d.base + "/healthz")
	if err == nil {
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("healthz: %s", resp.Status)
		}
	}
	if err != nil {
		d.shutdown()
		st.Close()
		return nil, err
	}
	return d, nil
}

// shutdown drains the daemon (jobs first, so SSE streams end), shuts
// the HTTP server down and waits for its goroutine. The store stays
// open for its owner to probe and close.
func (d *daemon) shutdown() error {
	d.srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := d.hs.Shutdown(ctx)
	<-d.done
	return err
}

// getJSON fetches url and decodes its JSON body into v.
func getJSON(c *http.Client, url string, v any) error {
	resp, err := c.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// serveProbeSeconds is the length of the traced serving phase a sweep
// workload's traced run adds, so that it prints the serving layers too.
const serveProbeSeconds = 8.0

// runServe runs serve-mixed: fixture, set-up setupReps times, then one
// open-loop load phase. The traced run measures the serving layers on
// an untraced and a traced phase, and the sweep layers on the sweep-warm
// grid, so that it prints every per-layer metric.
func runServe(o options, dir string) (*result, error) {
	sp := serveSpecFor(o.size)
	res := &result{}
	if o.traced {
		overhead, err := serveLayers(sp, o, dir, res, o.seconds, true)
		if err != nil {
			return nil, err
		}
		if _, err := sweepLayers(warmGrid(o.size), o, filepath.Join(dir, "sweep"), res); err != nil {
			return nil, fmt.Errorf("sweep probe: %w", err)
		}
		reportObs(res, overhead)
		return res, nil
	}
	fixStart := time.Now()
	fx, err := buildFixture(sp, o.seed, filepath.Join(dir, "fixture"))
	if err != nil {
		return nil, err
	}
	fixDur := time.Since(fixStart)

	var setups []float64
	var d *daemon
	for i := 0; i < sp.setupReps; i++ {
		storeDir := filepath.Join(dir, fmt.Sprintf("store%d", i))
		runtime.GC() // time set-up from a collected heap, not the fixture build's garbage
		start := time.Now()
		d, err = startDaemon(storeDir, fx.recs)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		if i < sp.setupReps-1 {
			if err := d.shutdown(); err != nil {
				return nil, err
			}
			if err := d.store.Close(); err != nil {
				return nil, err
			}
			if err := os.RemoveAll(storeDir); err != nil {
				return nil, err
			}
		}
	}
	if !resetPeakRSS() {
		res.note("max_rss_mb covers set-up too: the peak-RSS mark could not be reset")
	}
	lg := newLoadgen(d.base, sp, fx, o.seed)
	ph := lg.run(0, o.seconds, false)
	lg.close()
	checkWritten(ph, d.store)
	if err := d.shutdown(); err != nil {
		d.store.Close()
		return nil, err
	}

	res.note("fixture rows=%d seeds=%d scale=%g build_s=%.3f", len(fx.recs), sp.fixtureSeeds, sp.fixtureScale, fixDur.Seconds())
	res.note("setup_s per rep: %s", fmtFloats(setups))
	res.Attempted, res.Failed = ph.Attempted, ph.Failed
	res.Notes = append(res.Notes, ph.Notes...)
	var ops []float64
	for _, class := range []string{"read", "resubmit", "write"} {
		ops = append(ops, ph.Lat[class]...)
	}
	res.add("setup_s", "s", median(setups))
	res.add("minstr_per_s", "Minstr/s", median(ph.WriteRates))
	res.add("max_rss_mb", "MB", peakRSSMB())
	res.add("op_p50_ms", "ms", median(ops))
	res.note("op n=%d p50_ms=%.3f; write minstr_per_s n=%d p50=%.3f p10=%.3f", len(ops), median(ops),
		len(ph.WriteRates), median(ph.WriteRates), quantile(append([]float64(nil), ph.WriteRates...), 0.1))
	for _, c := range []struct {
		class string
		qs    []float64
	}{{"read", []float64{0.5, 0.95, 0.99}}, {"resubmit", []float64{0.5, 0.75, 0.9}}, {"write", []float64{0.5, 0.9}}} {
		lat := ph.Lat[c.class]
		for _, q := range c.qs {
			res.note("%s n=%d p%g_ms=%.3f beyond=%d", c.class, len(lat), 100*q, quantile(append([]float64(nil), lat...), q), beyond(len(lat), q))
		}
	}
	res.note("loadgen late_p99_ms=%.3f", quantile(append([]float64(nil), ph.LateMS...), 0.99))
	for _, name := range []string{"read_p50_ms", "read_p99_ms", "resubmit_p50_ms", "resubmit_p90_ms", "write_p50_ms", "write_p90_ms"} {
		res.drop(name, classDropReason)
	}
	res.drop("error_rate", errorRateDropReason)
	return res, d.store.Close()
}

// checkWritten fails every write of ph whose row is not in the store,
// intact.
func checkWritten(ph *phaseResult, st *results.Store) {
	for key, want := range ph.Written {
		rec, ok := st.Get(key)
		if !ok || recordDet(rec) != want {
			ph.Failed++
			ph.note("write failure: written cell %s missing or changed in the store", key)
		}
	}
}

// serveLayers measures the serving layers and adds their metrics to res:
// an in-process whirld on a fresh fixture store under one traced load
// phase of seconds (after an untraced one when baseline is set, whose
// ratio to the traced one it returns as the tracing overhead), the
// daemon's own /metrics view, and direct probes of the store.
func serveLayers(sp serveSpec, o options, dir string, res *result, seconds float64, baseline bool) (float64, error) {
	fx, err := buildFixture(sp, o.seed, filepath.Join(dir, "fixture"))
	if err != nil {
		return 0, err
	}
	d, err := startDaemon(filepath.Join(dir, "store"), fx.recs)
	if err != nil {
		return 0, fmt.Errorf("set-up: %w", err)
	}
	lg := newLoadgen(d.base, sp, fx, o.seed)
	var phase0 *phaseResult
	if baseline {
		phase0 = lg.run(0, seconds, false)
	}
	phase1 := lg.run(1, seconds, true)
	lg.close()
	for _, ph := range []*phaseResult{phase0, phase1} {
		if ph != nil {
			checkWritten(ph, d.store)
			res.Attempted += ph.Attempted
			res.Failed += ph.Failed
		}
	}
	var srvMetrics map[string]any
	tr := &http.Transport{}
	err = getJSON(&http.Client{Transport: tr, Timeout: 30 * time.Second}, d.base+"/metrics", &srvMetrics)
	tr.CloseIdleConnections()
	if serr := d.shutdown(); err == nil {
		err = serr
	}
	if err != nil {
		d.store.Close()
		return 0, err
	}

	res.Notes = append(res.Notes, phase1.Notes...)
	res.add("experiments.lookup_ms", "ms", median(phase1.LookupMS))
	res.add("experiments.commit_ms", "ms", median(phase1.CommitMS))
	reportServerMetrics(res, srvMetrics)
	res.add("server.job_queue_ms.p50", "ms", quantile(append([]float64(nil), phase1.QueueMS...), 0.5))
	res.add("server.job_queue_ms.p90", "ms", quantile(append([]float64(nil), phase1.QueueMS...), 0.9))
	res.add("loadgen.late_p99_ms", "ms", quantile(append([]float64(nil), phase1.LateMS...), 0.99))
	res.DroppedSpans += phase1.DroppedSpans
	res.note("serving phase traced_s=%g fixture_rows=%d; job traces fetched again for a job span that ended after done: %d",
		seconds, len(fx.recs), phase1.TraceRefetches)
	if err := probeStore(res, d.store, lg, o.seed); err != nil {
		return 0, err
	}
	if err := writeSpansJSONL(o, "serve", phase1.Spans); err != nil {
		return 0, err
	}
	if !baseline {
		return 0, nil
	}
	return mean(phase1.OkMS)/mean(phase0.OkMS) - 1, nil
}

// classDropReason explains why serve-mixed prints its per-class
// latencies as notes, not as gated metrics.
const classDropReason = "every workload must print every gated metric, and a per-class serving latency " +
	"exists only on serve-mixed; its value is the note above, and serve-mixed gates op_p50_ms " +
	"(every request, timed from its due time) and minstr_per_s (write throughput) instead"

// recordDet is a stored record's deterministic row line.
func recordDet(rec results.Record) string {
	var row experiments.SweepRow
	if json.Unmarshal(rec.Row, &row) != nil {
		return ""
	}
	row.Key = rec.Key
	return detLine(row)
}

// reportServerMetrics copies the daemon's own view of each endpoint the
// load uses from its /metrics tree.
func reportServerMetrics(res *result, tree map[string]any) {
	get := func(path ...string) float64 {
		var cur any = tree
		for _, p := range path {
			m, ok := cur.(map[string]any)
			if !ok {
				return -1
			}
			cur = m[p]
		}
		f, ok := cur.(float64)
		if !ok {
			return -1
		}
		return f
	}
	for _, ep := range []string{"results", "sweeps", "stream", "metrics"} {
		res.add("server."+ep+".p50_ms", "ms", get("server", "endpoints", ep, "latency", "p50_ms"))
		res.add("server."+ep+".p99_ms", "ms", get("server", "endpoints", ep, "latency", "p99_ms"))
	}
	res.note("server.shed=%g", get("server", "shed"))
	res.drop("server.shed", "it reads 0 on a passing run and a printed metric must never be 0; "+
		"a shed request fails the run instead, and the count is the note above")
	res.drop("server.jobs.p50_ms", "the load waits for jobs on /v1/jobs/{id}/stream, never on GET /v1/jobs; server.stream.* is that wait")
	res.drop("server.jobs.p99_ms", "as server.jobs.p50_ms")
}

// probeStore times the results layer directly on the store the load
// ran against: Open, AppendRaw over the read query mix, Get and Put.
func probeStore(res *result, st *results.Store, lg *loadgen, seed uint64) error {
	fx := lg.fx
	rng := newRand(seed, 99)
	var query, get, put []float64
	var buf [][]byte
	for i := 0; i < 2000; i++ {
		q, _ := lg.readQuery(rng)
		start := time.Now()
		buf = st.AppendRaw(q, buf[:0])
		query = append(query, float64(time.Since(start).Nanoseconds())/1e3)
	}
	for i := 0; i < 2000; i++ {
		key := fx.keys[rng.IntN(len(fx.keys))]
		start := time.Now()
		if _, ok := st.Get(key); !ok {
			return fmt.Errorf("store probe: fixture key %s missing", key)
		}
		get = append(get, float64(time.Since(start).Nanoseconds())/1e3)
	}
	for i := 0; i < 300; i++ {
		rec := fx.recs[rng.IntN(len(fx.recs))]
		rec.Key = fmt.Sprintf("perfbench-probe-%d", i)
		start := time.Now()
		if err := st.Put(rec); err != nil {
			return err
		}
		put = append(put, float64(time.Since(start).Nanoseconds())/1e3)
	}
	rows := st.Len()
	dir := st.Dir()
	if err := st.Close(); err != nil {
		return err
	}
	info, err := os.Stat(filepath.Join(dir, "rows.jsonl"))
	if err != nil {
		return err
	}
	var opens []float64
	for i := 0; i < 3; i++ {
		start := time.Now()
		s2, err := results.Open(dir)
		if err != nil {
			return err
		}
		opens = append(opens, ms(time.Since(start)))
		if err := s2.Close(); err != nil {
			return err
		}
	}
	res.add("results.open_ms", "ms", median(opens))
	res.add("results.rows", "count", float64(rows))
	res.add("results.file_mb", "MB", float64(info.Size())/1e6)
	res.add("results.query_us.p50", "us", quantile(query, 0.5))
	res.add("results.query_us.p99", "us", quantile(query, 0.99))
	res.add("results.put_us.p50", "us", quantile(put, 0.5))
	res.add("results.put_us.p99", "us", quantile(put, 0.99))
	res.add("results.get_us.p50", "us", quantile(get, 0.5))
	return nil
}

// postJSON posts body to url and returns the response body of a 202.
func postJSON(c *http.Client, url string, body []byte) ([]byte, error) {
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusAccepted {
		return nil, fmt.Errorf("POST %s: %s: %.200s", url, resp.Status, data)
	}
	return data, nil
}
