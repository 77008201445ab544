package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/url"
	"runtime"
	"sort"
	"sync"
	"time"

	"whirlpool/internal/experiments"
	"whirlpool/internal/obs"
	"whirlpool/internal/results"
	"whirlpool/internal/schemes"
)

// The open-loop generator. Each request has a due time on a schedule
// fixed before the phase starts; its latency runs from that due time,
// not from when it was sent, so a stall is charged to every request
// queued behind it. The client holds at most nproc connections: one
// waits for jobs to finish on their SSE streams, the rest carry every
// other request. A request that fails, is shed, or fails its body
// check counts as beyond every percentile (failLatency).

// failLatency is the latency charged to a failed request, past any real
// one.
const failLatency = 120 * time.Second

// phaseGrace is how long a phase waits, past its last due time, for
// outstanding requests and jobs; anything still open then has failed.
const phaseGrace = 30 * time.Second

func newRand(seed uint64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}

// request is one scheduled operation.
type request struct {
	class string // read, resubmit, write or metrics
	due   time.Duration
	path  string // GET path (read, metrics)
	body  []byte // POST /v1/sweeps body (resubmit, write)
	q     results.Query
	cells int
}

// loadgen drives one daemon.
type loadgen struct {
	base  string
	sp    serveSpec
	fx    *fixture
	seed  uint64
	short *http.Client // reads, submits, scrapes
	wait  *http.Client // job SSE streams and job traces, one connection
	trs   []*http.Transport
	// nextJob is the daemon's next job number: jobs are numbered j1, j2,
	// ... in acceptance order, and this generator is the only client.
	nextJob int
}

func newLoadgen(base string, sp serveSpec, fx *fixture, seed uint64) *loadgen {
	shortConns := runtime.NumCPU() - 1
	if shortConns < 1 {
		shortConns = 1
	}
	st := &http.Transport{MaxConnsPerHost: shortConns, MaxIdleConnsPerHost: shortConns, DisableCompression: true}
	wt := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &loadgen{
		base: base, sp: sp, fx: fx, seed: seed,
		short:   &http.Client{Transport: st, Timeout: phaseGrace},
		wait:    &http.Client{Transport: wt},
		trs:     []*http.Transport{st, wt},
		nextJob: 1,
	}
}

func (lg *loadgen) close() {
	for _, t := range lg.trs {
		t.CloseIdleConnections()
	}
}

// readQuery draws one /v1/results query: by app, by app and scheme, or
// by key, with equal probability.
func (lg *loadgen) readQuery(rng *rand.Rand) (results.Query, string) {
	app := lg.sp.apps[rng.IntN(len(lg.sp.apps))]
	switch rng.IntN(3) {
	case 0:
		return results.Query{App: app}, "/v1/results?app=" + url.QueryEscape(app)
	case 1:
		ids := schemes.KindIDs()
		s := ids[rng.IntN(len(ids))]
		return results.Query{App: app, Scheme: s}, "/v1/results?app=" + url.QueryEscape(app) + "&scheme=" + url.QueryEscape(s)
	default:
		key := lg.fx.keys[rng.IntN(len(lg.fx.keys))]
		return results.Query{Key: key}, "/v1/results?key=" + key
	}
}

// schedule builds one phase's requests in due order. Each class gets
// rate x seconds arrivals spread uniformly at random over the phase (a
// Poisson process conditioned on its count).
func (lg *loadgen) schedule(phase int, seconds float64) []request {
	rng := newRand(lg.seed, uint64(phase))
	span := time.Duration(seconds * float64(time.Second))
	var out []request
	arrivals := func(rate float64) []time.Duration {
		n := int(rate*seconds + 0.5)
		if n < 1 {
			n = 1
		}
		ts := make([]time.Duration, n)
		for i := range ts {
			ts[i] = time.Duration(rng.Int64N(int64(span)))
		}
		return ts
	}
	for _, due := range arrivals(lg.sp.readRate) {
		q, path := lg.readQuery(rng)
		out = append(out, request{class: "read", due: due, path: path, q: q})
	}
	ids := schemes.KindIDs()
	for _, due := range arrivals(lg.sp.resubmitRate) {
		perm := rng.Perm(len(lg.sp.apps))
		apps := make([]string, lg.sp.resubmitApps)
		for i := range apps {
			apps[i] = lg.sp.apps[perm[i]]
		}
		body, _ := json.Marshal(map[string]any{
			"apps": apps, "scale": lg.sp.fixtureScale,
			"seed": lg.fx.seeds[rng.IntN(len(lg.fx.seeds))],
		})
		out = append(out, request{class: "resubmit", due: due, body: body, cells: len(apps) * len(ids)})
	}
	// Writes walk the app x scheme grid in a seed-shuffled order, so every
	// app and every scheme gets its share of a phase's writes and the
	// write throughput does not hinge on which apps the seed drew.
	appPerm, kindPerm := rng.Perm(len(lg.sp.apps)), rng.Perm(len(ids))
	for n, due := range arrivals(lg.sp.writeRate) {
		body, _ := json.Marshal(map[string]any{
			"apps":    []string{lg.sp.apps[appPerm[n%len(appPerm)]]},
			"schemes": []string{ids[kindPerm[n%len(kindPerm)]]},
			"scale":   lg.sp.fixtureScale,
			"seed":    writeSeed(lg.seed, phase, n),
		})
		out = append(out, request{class: "write", due: due, body: body, cells: 1})
	}
	for _, due := range arrivals(lg.sp.metricsRate) {
		out = append(out, request{class: "metrics", due: due, path: "/metrics?format=prom"})
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].due < out[j].due })
	return out
}

// phaseResult is one load phase's outcome.
type phaseResult struct {
	mu        sync.Mutex
	Attempted int
	Failed    int
	Lat       map[string][]float64 // per class, ms from due time; failures at failLatency
	OkMS      []float64            // successful requests' latencies, every class
	LateMS    []float64            // dispatch time minus due time
	Written   map[string]string    // cell key -> row line of every write
	// WriteRates holds each write's simulated instructions per second of
	// its latency, in Minstr/s; a failed write reads 0.
	WriteRates []float64
	// Traced phases only.
	LookupMS, CommitMS, QueueMS []float64
	DroppedSpans                int
	TraceRefetches              int    // job trees fetched again for a late job span
	Spans                       []byte // the jobs' span trees, JSONL
	Notes                       []string
}

func (p *phaseResult) note(format string, args ...any) {
	if len(p.Notes) < 12 {
		p.Notes = append(p.Notes, fmt.Sprintf(format, args...))
	}
}

// record files one finished request.
func (p *phaseResult) record(class string, lat time.Duration, err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.Attempted++
	if err != nil {
		p.Failed++
		lat = failLatency
		p.note("%s failure: %v", class, err)
	} else {
		p.OkMS = append(p.OkMS, ms(lat))
	}
	if class != "metrics" {
		p.Lat[class] = append(p.Lat[class], ms(lat))
	}
}

// pendingJob is a submitted job the waiter has not yet seen finish.
type pendingJob struct {
	req       request
	submitted time.Time
	done      chan jobOutcome // buffered: the waiter never blocks on it
}

type jobOutcome struct {
	at     time.Time
	status jobStatus
	rows   int                   // row events received
	row    *experiments.SweepRow // a write's decoded row
	err    error
}

type jobStatus struct {
	ID         string `json:"id"`
	State      string `json:"state"`
	Total      int    `json:"total"`
	Served     int    `json:"served"`
	Computed   int    `json:"computed"`
	CellErrors int    `json:"cell_errors"`
	Error      string `json:"error"`
}

// jobBoard hands submitted jobs to the waiter in job-number order.
type jobBoard struct {
	mu       sync.Mutex
	cond     *sync.Cond
	jobs     map[int]*pendingJob
	inflight int  // submits sent but not yet answered
	closed   bool // the generator has dispatched every request
}

func newJobBoard() *jobBoard {
	b := &jobBoard{jobs: map[int]*pendingJob{}}
	b.cond = sync.NewCond(&b.mu)
	return b
}

func (b *jobBoard) begin() {
	b.mu.Lock()
	b.inflight++
	b.mu.Unlock()
}

// end finishes a submit: pj is registered under job number n when the
// daemon accepted it (n > 0).
func (b *jobBoard) end(n int, pj *pendingJob) {
	b.mu.Lock()
	b.inflight--
	if n > 0 {
		b.jobs[n] = pj
	}
	b.mu.Unlock()
	b.cond.Broadcast()
}

func (b *jobBoard) close() {
	b.mu.Lock()
	b.closed = true
	b.mu.Unlock()
	b.cond.Broadcast()
}

// next blocks until job n is registered, or returns nil once no further
// job can arrive.
func (b *jobBoard) next(n int) *pendingJob {
	b.mu.Lock()
	defer b.mu.Unlock()
	for {
		if pj, ok := b.jobs[n]; ok {
			delete(b.jobs, n)
			return pj
		}
		if b.closed && b.inflight == 0 {
			return nil
		}
		b.cond.Wait()
	}
}

// run executes one phase of seconds and returns its outcome. traced
// phases fetch every job's span tree from the daemon as soon as the job
// finishes.
func (lg *loadgen) run(phase int, seconds float64, traced bool) *phaseResult {
	p := &phaseResult{Lat: map[string][]float64{}, Written: map[string]string{}}
	sched := lg.schedule(phase, seconds)
	board := newJobBoard()
	ctx, cancel := context.WithTimeout(context.Background(), time.Duration(seconds*float64(time.Second))+phaseGrace)
	defer cancel()

	waiterDone := make(chan struct{})
	go func() {
		defer close(waiterDone)
		for {
			pj := board.next(lg.nextJob)
			if pj == nil {
				return
			}
			id := fmt.Sprintf("j%d", lg.nextJob)
			lg.nextJob++
			out := lg.awaitJob(ctx, id, pj.req)
			if traced && out.err == nil {
				lg.fetchJobTrace(ctx, id, pj, p)
			}
			pj.done <- out
		}
	}()

	var wg sync.WaitGroup
	start := time.Now()
	for _, rq := range sched {
		if d := time.Until(start.Add(rq.due)); d > 0 {
			time.Sleep(d)
		}
		dueAt := start.Add(rq.due)
		p.LateMS = append(p.LateMS, ms(time.Since(dueAt)))
		if rq.body != nil {
			board.begin()
		}
		wg.Add(1)
		go func(rq request) {
			defer wg.Done()
			lg.do(ctx, rq, dueAt, board, p)
		}(rq)
	}
	board.close()
	wg.Wait()
	<-waiterDone
	return p
}

// do executes one request and records it.
func (lg *loadgen) do(ctx context.Context, rq request, dueAt time.Time, board *jobBoard, p *phaseResult) {
	switch rq.class {
	case "read":
		done, err := lg.read(rq)
		p.record(rq.class, done.Sub(dueAt), err)
	case "metrics":
		err := lg.scrape()
		p.record(rq.class, time.Since(dueAt), err)
	default:
		pj := &pendingJob{req: rq, submitted: time.Now(), done: make(chan jobOutcome, 1)}
		data, err := postJSON(lg.short, lg.base+"/v1/sweeps", rq.body)
		n := 0
		if err == nil {
			var acc struct {
				ID string `json:"id"`
			}
			if err = json.Unmarshal(data, &acc); err == nil {
				if _, serr := fmt.Sscanf(acc.ID, "j%d", &n); serr != nil || n <= 0 {
					err = fmt.Errorf("submit: unexpected job id %q", acc.ID)
					n = 0
				}
			}
		}
		board.end(n, pj)
		if err != nil {
			p.record(rq.class, 0, err)
			p.recordWrite(rq, nil, 0)
			return
		}
		var out jobOutcome
		select {
		case out = <-pj.done:
		case <-ctx.Done():
			out.err = fmt.Errorf("job j%d did not finish: %w", n, ctx.Err())
		}
		if out.err == nil {
			out.err = lg.checkJob(rq, out, p)
		}
		p.record(rq.class, out.at.Sub(dueAt), out.err)
		if out.err == nil {
			p.recordWrite(rq, out.row, out.at.Sub(dueAt))
		} else {
			p.recordWrite(rq, nil, 0)
		}
	}
}

// recordWrite files a finished write's throughput: its cell's simulated
// instructions over its latency, or 0 for a failed write (row nil).
// Other classes are ignored.
func (p *phaseResult) recordWrite(rq request, row *experiments.SweepRow, lat time.Duration) {
	if rq.class != "write" {
		return
	}
	rate := 0.0
	if row != nil && lat > 0 {
		rate = float64(row.Instrs) / lat.Seconds() / 1e6
	}
	p.mu.Lock()
	p.WriteRates = append(p.WriteRates, rate)
	p.mu.Unlock()
}

// bodyPool recycles read buffers, so checking bodies adds little
// garbage to the process the daemon shares with its client.
var bodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// read performs one /v1/results query, returning when its body was fully
// received, and checks the body against the fixture.
func (lg *loadgen) read(rq request) (time.Time, error) {
	resp, err := lg.short.Get(lg.base + rq.path)
	if err != nil {
		return time.Now(), err
	}
	buf := bodyPool.Get().(*bytes.Buffer)
	defer bodyPool.Put(buf)
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	done := time.Now()
	resp.Body.Close()
	if err != nil {
		return done, err
	}
	if resp.StatusCode != http.StatusOK {
		return done, fmt.Errorf("GET %s: %s", rq.path, resp.Status)
	}
	return done, lg.checkRead(rq, buf.Bytes())
}

// checkRead validates a /v1/results body without decoding it: it must
// be a JSON array of stored record lines, one per line; every record
// must match the filter; an app query returns at least the fixture's
// rows; a key query returns exactly the fixture's record.
func (lg *loadgen) checkRead(rq request, body []byte) error {
	if !json.Valid(body) || len(body) < 3 || body[0] != '[' || !bytes.HasSuffix(body, []byte("]\n")) {
		return fmt.Errorf("GET %s: malformed body", rq.path)
	}
	inner := body[1 : len(body)-2]
	if rq.q.Key != "" {
		if !bytes.Equal(inner, lg.fx.raw[rq.q.Key]) {
			return fmt.Errorf("GET %s: body is not exactly the stored record", rq.path)
		}
		return nil
	}
	n := 0
	for len(inner) > 0 {
		line := inner
		if i := bytes.IndexByte(inner, '\n'); i >= 0 {
			line, inner = inner[:i], inner[i+1:]
		} else {
			inner = nil
		}
		if string(jsonField(line, "app")) != rq.q.App ||
			(rq.q.Scheme != "" && string(jsonField(line, "scheme")) != rq.q.Scheme) {
			return fmt.Errorf("GET %s: record %d does not match the filter", rq.path, n)
		}
		n++
	}
	want := lg.fx.count[rq.q.App]
	if rq.q.Scheme != "" {
		want = lg.fx.count[rq.q.App+"/"+rq.q.Scheme]
	}
	if n < want {
		return fmt.Errorf("GET %s: %d records, the fixture alone has %d", rq.path, n, want)
	}
	return nil
}

// jsonField returns the value of the first string field name in a
// compact JSON object line (nil when absent). The daemon's lines are
// marshaled records, so a field's value holds no escaped quotes.
func jsonField(line []byte, name string) []byte {
	pat := `"` + name + `":"`
	i := bytes.Index(line, []byte(pat))
	if i < 0 {
		return nil
	}
	v := line[i+len(pat):]
	if j := bytes.IndexByte(v, '"'); j >= 0 {
		return v[:j]
	}
	return nil
}

// scrape fetches the Prometheus exposition and checks it carries the
// job counters.
func (lg *loadgen) scrape() error {
	resp, err := lg.short.Get(lg.base + "/metrics?format=prom")
	if err != nil {
		return err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK || !bytes.Contains(body, []byte("whirld_jobs_submitted_total")) {
		return fmt.Errorf("metrics scrape: %s, %d bytes", resp.Status, len(body))
	}
	return nil
}

// awaitJob follows a job's SSE stream until its done event, checking
// each row as it arrives.
func (lg *loadgen) awaitJob(ctx context.Context, id string, rq request) jobOutcome {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, lg.base+"/v1/jobs/"+id+"/stream", nil)
	if err != nil {
		return jobOutcome{err: err}
	}
	resp, err := lg.wait.Do(req)
	if err != nil {
		return jobOutcome{err: err}
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return jobOutcome{err: fmt.Errorf("stream %s: %s", id, resp.Status)}
	}
	var out jobOutcome
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	var event []byte
	for sc.Scan() {
		line := sc.Bytes()
		switch {
		case bytes.HasPrefix(line, []byte("event: ")):
			event = append(event[:0], line[len("event: "):]...)
		case bytes.HasPrefix(line, []byte("data: ")):
			data := line[len("data: "):]
			switch string(event) {
			case "row":
				out.rows++
				if out.err == nil {
					out.err = lg.checkRow(id, rq, data, &out)
				}
			case "done":
				out.at = time.Now()
				if err := json.Unmarshal(data, &out.status); err != nil && out.err == nil {
					out.err = fmt.Errorf("stream %s: malformed done event: %v", id, err)
				}
				return out
			}
		}
	}
	if err := sc.Err(); err != nil {
		return jobOutcome{err: fmt.Errorf("stream %s: %v", id, err)}
	}
	return jobOutcome{err: fmt.Errorf("stream %s ended without a done event", id)}
}

// checkRow checks one streamed row: a resubmit's row must be byte for
// byte the stored row of its key; a write's row is decoded and must
// satisfy the row invariants.
func (lg *loadgen) checkRow(id string, rq request, data []byte, out *jobOutcome) error {
	if rq.class == "resubmit" {
		key := jsonField(data, "key")
		if want, ok := lg.fx.row[string(key)]; !ok || !bytes.Equal(data, want) {
			return fmt.Errorf("job %s: served row %s differs from the stored row", id, key)
		}
		return nil
	}
	var r experiments.SweepRow
	if err := json.Unmarshal(data, &r); err != nil {
		return fmt.Errorf("job %s: malformed row: %v", id, err)
	}
	if err := rowInvariantErr(r); err != nil {
		return fmt.Errorf("job %s: %v", id, err)
	}
	out.row = &r
	return nil
}

// checkJob validates a finished job against its class: a resubmit must
// serve every cell from the store with the fixture's rows; a write must
// compute its one cell into a valid row.
func (lg *loadgen) checkJob(rq request, out jobOutcome, p *phaseResult) error {
	st := out.status
	if st.State != "done" || st.CellErrors != 0 || st.Total != rq.cells || out.rows != rq.cells {
		return fmt.Errorf("job %s: state %s, %d cell errors, %d/%d rows: %s", st.ID, st.State, st.CellErrors, out.rows, rq.cells, st.Error)
	}
	switch rq.class {
	case "resubmit":
		if st.Computed != 0 || st.Served != st.Total {
			return fmt.Errorf("job %s: resubmit computed %d cells, served %d of %d", st.ID, st.Computed, st.Served, st.Total)
		}
	case "write":
		if st.Computed != 1 || out.row == nil {
			return fmt.Errorf("job %s: write computed %d cells", st.ID, st.Computed)
		}
		p.mu.Lock()
		p.Written[out.row.Key] = detLine(*out.row)
		p.mu.Unlock()
	}
	return nil
}

// fetchJobTrace reads a finished job's span tree from the daemon right
// away, before the daemon's span ring can wrap past it, and extracts the
// per-job store and queueing times. A tree missing its job span or a
// store.lookup per cell counts as dropped spans. The daemon ends a job's
// root span just after it reports the job done, so a tree without that
// span is fetched again, a few times, before it counts.
func (lg *loadgen) fetchJobTrace(ctx context.Context, id string, pj *pendingJob, p *phaseResult) {
	var (
		body             []byte
		err              error
		jobStart         time.Time
		lookup, commit   time.Duration
		lookups, refetch int
	)
	for attempt := 0; attempt < 5; attempt++ {
		if attempt > 0 {
			refetch++
			time.Sleep(time.Duration(attempt) * time.Millisecond)
		}
		body, err = lg.getTrace(ctx, id)
		var spans []obs.Span
		if err == nil {
			spans, err = obs.ParseSpans(bytes.NewReader(body))
		}
		jobStart, lookup, commit, lookups = time.Time{}, 0, 0, 0
		for _, s := range spans {
			switch s.Name {
			case "job":
				jobStart = s.Start
			case "store.lookup":
				lookup += s.Dur
				lookups++
			case "store.commit":
				commit += s.Dur
			}
		}
		if err != nil || !jobStart.IsZero() {
			break
		}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.TraceRefetches += refetch
	missing := pj.req.cells - lookups
	if jobStart.IsZero() {
		missing++
	}
	if err != nil {
		missing = 1 + pj.req.cells
	}
	if missing > 0 {
		p.DroppedSpans += missing
		return
	}
	p.Spans = append(p.Spans, body...)
	p.QueueMS = append(p.QueueMS, ms(jobStart.Sub(pj.submitted)))
	switch pj.req.class {
	case "resubmit":
		p.LookupMS = append(p.LookupMS, ms(lookup))
	case "write":
		p.CommitMS = append(p.CommitMS, ms(commit))
	}
}

// getTrace fetches a job's span tree as JSONL.
func (lg *loadgen) getTrace(ctx context.Context, id string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, lg.base+"/v1/jobs/"+id+"/trace", nil)
	if err != nil {
		return nil, err
	}
	resp, err := lg.wait.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("trace %s: %s", id, resp.Status)
	}
	return body, err
}
