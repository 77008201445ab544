package sim

import (
	"errors"
	"reflect"
	"sync"
	"testing"

	"whirlpool/internal/addr"
	"whirlpool/internal/energy"
	"whirlpool/internal/mem"
	"whirlpool/internal/trace"
)

// mkMixedTrace builds a trace with writebacks and writes so the reused
// replay state exercises every access kind.
func mkMixedTrace(n int, gap uint32, stride int) *trace.LLCTrace {
	t := &trace.LLCTrace{}
	for i := 0; i < n; i++ {
		t.Append(trace.LLCAccess{Line: addr.Line(i * stride), Gap: gap, Write: i%3 == 0})
		t.Instrs += uint64(gap)
		if i%5 == 0 {
			t.Append(trace.LLCAccess{Line: addr.Line(i), Writeback: true})
		}
	}
	return t
}

// runBoth executes cfg once via the package-level Run (fresh state) and
// once via r, requiring identical results. The fakeLLC is rebuilt per
// call so cache-side state never leaks between the two.
func runBoth(t *testing.T, r *Runner, mk func() Config) {
	t.Helper()
	want := Run(mk())
	got := r.Run(mk())
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("Runner.Run diverged:\n got %+v\nwant %+v", got, want)
	}
}

// TestRunnerReuseBitIdentity replays a stream of heterogeneous cells —
// single-core, multi-core Loop mixes, warmup on and off, changing chip
// widths, repeated same-trace cells — through one Runner and requires
// every result to match a fresh Run exactly. This is the sweep batching
// contract: arena reuse must be invisible in the rows.
func TestRunnerReuseBitIdentity(t *testing.T) {
	tr1 := mkMixedTrace(500, 10, 2)
	tr2 := mkMixedTrace(300, 7, 3)
	tr3 := mkMixedTrace(200, 13, 1)
	r := NewRunner()

	single := func(tr trace.Reader, warm bool) func() Config {
		return func() Config {
			return Config{
				LLC: &fakeLLC{hitLat: 10, missLat: 100}, Meter: &energy.Meter{},
				Traces: []trace.Reader{tr, nil, nil, nil}, Warmup: warm,
			}
		}
	}
	mix := func(traces ...trace.Reader) func() Config {
		return func() Config {
			return Config{
				LLC: &fakeLLC{hitLat: 10, missLat: 100}, Meter: &energy.Meter{},
				Traces: traces, Loop: true, Warmup: true,
			}
		}
	}

	// Same trace back to back: the cursor-reuse path.
	runBoth(t, r, single(tr1, false))
	runBoth(t, r, single(tr1, true))
	runBoth(t, r, single(tr1, true))
	// Different trace in the same slot: cursor replaced.
	runBoth(t, r, single(tr2, true))
	// Wider chip: arenas regrow.
	runBoth(t, r, mix(tr1, tr2, tr3, nil, nil, nil, nil, nil))
	// Back to narrow: arenas shrink in place.
	runBoth(t, r, single(tr3, true))
	// Multi-core without idle tails, cycles tied at start.
	runBoth(t, r, mix(tr1, tr1, tr2))
}

// TestRunnerPoolCounters checks per-pool counters come out fresh (not
// accumulated across reuse).
func TestRunnerPoolCounters(t *testing.T) {
	tr := mkMixedTrace(200, 10, 1)
	r := NewRunner()
	mk := func() Config {
		return Config{
			LLC: &fakeLLC{hitLat: 10, missLat: 100}, Meter: &energy.Meter{},
			Traces:   []trace.Reader{tr},
			PoolOf:   func(l addr.Line) mem.PoolID { return mem.PoolID(uint64(l) % 2) },
			NumPools: 2,
		}
	}
	first := r.Run(mk())
	second := r.Run(mk())
	if !reflect.DeepEqual(first.PoolAccesses, second.PoolAccesses) ||
		!reflect.DeepEqual(first.PoolMisses, second.PoolMisses) {
		t.Fatalf("pool counters drift across reuse: %v/%v then %v/%v",
			first.PoolAccesses, first.PoolMisses, second.PoolAccesses, second.PoolMisses)
	}
}

// TestRunnerEmptyAndIdle keeps the degenerate paths working through
// reuse: all-idle configs and zero-access traces.
func TestRunnerEmptyAndIdle(t *testing.T) {
	r := NewRunner()
	tr := mkMixedTrace(50, 5, 1)
	if res := r.Run(Config{LLC: &fakeLLC{}, Meter: &energy.Meter{}, Traces: []trace.Reader{nil, &trace.LLCTrace{}}}); res.Demand != 0 {
		t.Fatalf("idle run did work: %+v", res)
	}
	if res := r.Run(Config{LLC: &fakeLLC{hitLat: 1, missLat: 2}, Meter: &energy.Meter{}, Traces: []trace.Reader{tr}}); res.Demand == 0 {
		t.Fatal("live run after idle run did nothing")
	}
	got := r.Run(Config{LLC: &fakeLLC{}, Meter: &energy.Meter{}, Traces: []trace.Reader{nil}})
	want := Run(Config{LLC: &fakeLLC{}, Meter: &energy.Meter{}, Traces: []trace.Reader{nil}})
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("idle run after live run: got %+v, want %+v", got, want)
	}
}

// TestRunnersConcurrent gives each goroutine its own Runner over shared
// read-only traces (the sweep worker topology) and requires identical
// results — the arrangement make race exercises.
func TestRunnersConcurrent(t *testing.T) {
	tr1 := mkMixedTrace(400, 10, 2)
	tr2 := mkMixedTrace(300, 7, 3)
	want := Run(Config{LLC: &fakeLLC{hitLat: 10, missLat: 100}, Meter: &energy.Meter{},
		Traces: []trace.Reader{tr1, tr2}, Loop: true, Warmup: true})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := NewRunner()
			for k := 0; k < 3; k++ {
				got := r.Run(Config{LLC: &fakeLLC{hitLat: 10, missLat: 100}, Meter: &energy.Meter{},
					Traces: []trace.Reader{tr1, tr2}, Loop: true, Warmup: true})
				if !reflect.DeepEqual(want, got) {
					t.Errorf("concurrent runner diverged")
					return
				}
			}
		}()
	}
	wg.Wait()
}

var errStopped = errors.New("stream stopped")

// stoppingReader replays tr but, on pass failPass, stops after stop
// accesses and reports errStopped through Err: the shape of a mapped
// trace closed or corrupted under replay.
type stoppingReader struct {
	*trace.LLCTrace
	failPass, stop int
}

func (s *stoppingReader) NewCursor() trace.Cursor {
	return &stoppingCursor{Cursor: s.LLCTrace.NewCursor(), r: s}
}

type stoppingCursor struct {
	trace.Cursor
	r       *stoppingReader
	pass, i int
	err     error
}

func (c *stoppingCursor) Next() (trace.LLCAccess, bool) {
	if c.pass == c.r.failPass && c.i >= c.r.stop {
		c.err = errStopped
		return trace.LLCAccess{}, false
	}
	c.i++
	return c.Cursor.Next()
}

func (c *stoppingCursor) Reset() {
	c.Cursor.Reset()
	c.pass++
	c.i = 0
}

func (c *stoppingCursor) Err() error { return c.err }

// TestRunnerRejectsShortStream: a cursor that stops early, in the
// warm-up pass or the measured one, directly or behind trace.Offset (the
// mix path), fails the run at the pass boundary with the cursor's error
// instead of returning a result built from a short stream.
func TestRunnerRejectsShortStream(t *testing.T) {
	tr := mkMixedTrace(300, 10, 2)
	cases := []struct {
		name     string
		warmup   bool
		failPass int
		offset   bool
	}{
		{"measured", false, 0, false},
		{"warmup", true, 0, false},
		{"measured-after-warmup", true, 1, false},
		{"offset", true, 1, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var rd trace.Reader = &stoppingReader{LLCTrace: tr, failPass: tc.failPass, stop: 100}
			if tc.offset {
				rd = trace.Offset(rd, 1<<40)
			}
			defer func() {
				err, _ := recover().(error)
				if !errors.Is(err, errStopped) {
					t.Fatalf("run did not fail with the cursor's error: %v", err)
				}
			}()
			NewRunner().Run(Config{
				LLC: &fakeLLC{hitLat: 10, missLat: 100}, Meter: &energy.Meter{},
				Traces: []trace.Reader{nil, rd}, Warmup: tc.warmup,
			})
		})
	}
}
