// Command whirld is the Whirlpool serving daemon: it runs, memoizes,
// and streams experiments over HTTP. Sweeps submitted to POST
// /v1/sweeps run as async jobs on a bounded worker pool; every
// computed row is committed to a persistent content-addressed result
// store, and any cell already in the store is served without
// re-simulation — the same store whirlsweep -store reads and writes,
// so the CLI and the daemon share one result universe.
//
// In coordinator mode the daemon shards each sweep's unserved cells
// across a fleet of remote worker whirlds, collects their rows over
// SSE, and commits everything to its own store. The fleet is elastic:
// workers either appear on the -workers list (static members, assumed
// alive forever) or join themselves at runtime with -join (leased
// members that heartbeat; a worker that misses its lease deadline is
// dead exactly like a dropped connection, and its cells re-route to
// the survivors). Routing is capacity- and load-aware, so a -parallel
// 8 worker draws more cells than a -parallel 2 one.
//
// Usage:
//
//	whirld                                   # 127.0.0.1:8080, store under the user cache dir
//	whirld -addr :9090 -store ./store -trace-cache auto -parallel 8
//	whirld -workers http://10.0.0.2:8080,http://10.0.0.3:8080   # static coordinator
//	whirld -addr :0 -join http://10.0.0.1:8080                  # elastic worker
//	curl -X POST -d '{"apps":["delaunay"],"scale":0.1}' localhost:8080/v1/sweeps
//	curl -N localhost:8080/v1/jobs/j1/stream # SSE rows as cells finish
//
// See docs/server.md for the API reference and the distributed-mode
// topology.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"whirlpool/internal/cliutil"
	"whirlpool/internal/fleet"
	"whirlpool/internal/obs"
	"whirlpool/internal/results"
	"whirlpool/internal/server"
)

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "whirld:", err)
	os.Exit(1)
}

// parseInflight decodes the -inflight flag ("results=64,sweeps=8") into
// server.Config.EndpointLimits. Unknown endpoint names are rejected by
// server.New, so typos fail at startup, not silently at serve time.
func parseInflight(s string) (map[string]int, error) {
	if s == "" {
		return nil, nil
	}
	limits := map[string]int{}
	for _, pair := range cliutil.SplitList(s) {
		name, val, ok := strings.Cut(pair, "=")
		n, err := strconv.Atoi(strings.TrimSpace(val))
		if !ok || strings.TrimSpace(name) == "" || err != nil {
			return nil, fmt.Errorf("-inflight: %q is not name=N (e.g. results=64; valid names: %s)",
				pair, strings.Join(server.EndpointNames(), ", "))
		}
		limits[strings.TrimSpace(name)] = n
	}
	return limits, nil
}

// resolveWorkers interprets -workers: a URL list is coordinator mode.
func resolveWorkers(workersFlag string) ([]string, error) {
	if workersFlag == "" {
		return nil, nil
	}
	// Only the scheme is validated here; the fleet registry owns URL
	// normalization (trimming, dedup) for every caller.
	var urls []string
	for _, u := range cliutil.SplitList(workersFlag) {
		if !strings.HasPrefix(u, "http://") && !strings.HasPrefix(u, "https://") {
			return nil, fmt.Errorf("-workers: %q is not a worker URL (want http://host:port)", u)
		}
		urls = append(urls, u)
	}
	return urls, nil
}

// advertiseURL derives the base URL a -join worker advertises when
// -advertise is unset: the bound listen address, with wildcard hosts
// rewritten to loopback so the coordinator gets something dialable.
func advertiseURL(bound net.Addr) string {
	host, port, err := net.SplitHostPort(bound.String())
	if err != nil {
		return "http://" + bound.String()
	}
	switch host {
	case "", "::", "0.0.0.0":
		host = "127.0.0.1"
	}
	return "http://" + net.JoinHostPort(host, port)
}

func main() {
	addr := flag.String("addr", "127.0.0.1:8080", "listen address (use :0 for an ephemeral port; the bound address is printed)")
	storeFlag := flag.String("store", "auto", cliutil.StoreUsage)
	traceCache := flag.String("trace-cache", "", cliutil.TraceCacheUsage)
	workersFlag := flag.String("workers", "", "coordinator mode: comma-separated worker whirld base URLs (http://host:port) to shard sweeps across as static fleet members")
	join := flag.String("join", "", "worker mode: register with this coordinator whirld (http://host:port) and renew a heartbeat lease until shutdown")
	advertise := flag.String("advertise", "", "base URL the coordinator dials this worker at (with -join; default: derived from the bound -addr)")
	leaseTTL := flag.Duration("lease-ttl", 0, "coordinator: how long a joined worker survives without a heartbeat before its lease expires and its cells re-route to survivors (0 = 10s)")
	parallel := flag.Int("parallel", runtime.GOMAXPROCS(0), "parallel simulation workers per job")
	queue := flag.Int("queue", 64, "max queued jobs before submits get 503")
	inflight := flag.String("inflight", "", "per-endpoint concurrency limits as name=N pairs (e.g. results=64,sweeps=8); N<0 lifts an endpoint's default limit; endpoints: sweeps, cells, jobs, stream, rows, results, healthz, metrics")
	debugAddr := flag.String("debug-addr", "", "serve net/http/pprof profiling on this separate address (e.g. 127.0.0.1:6060); empty disables it")
	version := cliutil.VersionFlag()
	flag.Parse()
	cliutil.HandleVersion("whirld", *version)

	workerURLs, err := resolveWorkers(*workersFlag)
	if err != nil {
		fatal(err)
	}

	limits, err := parseInflight(*inflight)
	if err != nil {
		fatal(err)
	}

	storeDir, err := cliutil.ResolveStoreDir(*storeFlag)
	if err != nil {
		fatal(err)
	}
	if storeDir == "" {
		fatal(fmt.Errorf("whirld needs a result store (-store DIR, or -store auto)"))
	}
	store, err := results.Open(storeDir)
	if err != nil {
		fatal(err)
	}
	cacheDir, err := cliutil.ResolveTraceCacheDir(*traceCache)
	if err != nil {
		fatal(err)
	}

	// Structured logging with the daemon's traditional line shape:
	// "whirld: message key=val ..." on stderr, so scripts grepping the
	// old printf output keep working.
	logger := obs.NewLogger(os.Stderr, "whirld")
	srv, err := server.New(server.Config{
		Store:          store,
		TraceCacheDir:  cacheDir,
		Workers:        *parallel,
		WorkerURLs:     workerURLs,
		LeaseTTL:       *leaseTTL,
		Log:            logger,
		QueueDepth:     *queue,
		EndpointLimits: limits,
		Version:        cliutil.Version(),
	})
	if err != nil {
		fatal(err)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	// The bound address goes to stdout (scripts parse it, especially
	// with -addr :0); everything else logs to stderr.
	fmt.Printf("whirld: listening on %s\n", ln.Addr())
	fmt.Fprintf(os.Stderr, "whirld: store %s (%d rows), trace cache %q, %d parallel sim workers\n",
		storeDir, store.Len(), cacheDir, *parallel)
	if len(workerURLs) > 0 {
		fmt.Fprintf(os.Stderr, "whirld: coordinator over %d static workers: %s\n",
			len(workerURLs), strings.Join(workerURLs, ", "))
	}
	if *inflight != "" {
		fmt.Fprintf(os.Stderr, "whirld: endpoint concurrency limits: %s\n", *inflight)
	}

	// Profiling stays off the serving listener: pprof handlers leak
	// internals and hold connections open, so they bind to their own
	// address (typically loopback) and never share the API's port.
	var debugSrv *http.Server
	if *debugAddr != "" {
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			store.Close()
			fatal(fmt.Errorf("-debug-addr: %v", err))
		}
		dmux := http.NewServeMux()
		dmux.HandleFunc("/debug/pprof/", pprof.Index)
		dmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		debugSrv = &http.Server{Handler: dmux}
		go debugSrv.Serve(dln)
		// Scripts parse this from stdout like the main listen line.
		fmt.Printf("whirld: debug listening on %s\n", dln.Addr())
	}

	// Worker mode: join the coordinator's fleet and keep the lease
	// warm. The agent retries registration until the coordinator is
	// reachable, so boot order doesn't matter.
	var agent *fleet.Agent
	if *join != "" {
		adv := *advertise
		if adv == "" {
			adv = advertiseURL(ln.Addr())
		}
		agent, err = fleet.StartAgent(fleet.AgentOptions{
			Coordinator: *join,
			Advertise:   adv,
			Capacity:    *parallel,
			Load:        srv.Load,
			Log:         logger,
		})
		if err != nil {
			store.Close()
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "whirld: joining fleet at %s as %s (capacity %d)\n", *join, adv, *parallel)
	}

	httpSrv := &http.Server{Handler: srv.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case <-ctx.Done():
		fmt.Fprintln(os.Stderr, "whirld: shutting down (in-flight rows are committed; resubmit to resume)")
	case err := <-errc:
		store.Close()
		fatal(err)
	}

	// Graceful shutdown: leave the fleet first (so the coordinator
	// stops routing here instead of waiting out the lease), then cancel
	// jobs (their committed rows are already in the store), which ends
	// SSE streams, then drain HTTP.
	if agent != nil {
		agent.Close()
	}
	if debugSrv != nil {
		debugSrv.Close()
	}
	srv.Close()
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		fmt.Fprintln(os.Stderr, "whirld: shutdown:", err)
	}
	if err := store.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "whirld: store close:", err)
	}
}
