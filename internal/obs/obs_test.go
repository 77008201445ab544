package obs

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"
)

func TestIDs(t *testing.T) {
	tr := newTraceID()
	if tr.IsZero() {
		t.Fatal("zero trace id")
	}
	if got := len(tr.String()); got != 32 {
		t.Fatalf("trace id hex length = %d, want 32", got)
	}
	sp := newSpanID()
	if sp.IsZero() {
		t.Fatal("zero span id")
	}
	if got := len(sp.String()); got != 16 {
		t.Fatalf("span id hex length = %d, want 16", got)
	}
	if newTraceID() == newTraceID() {
		t.Fatal("trace ids collide")
	}
}

func TestTraceparentRoundTrip(t *testing.T) {
	sc := SpanContext{Trace: newTraceID(), Span: newSpanID()}
	h := Traceparent(sc)
	if len(h) != 55 {
		t.Fatalf("traceparent length = %d, want 55: %q", len(h), h)
	}
	got, ok := ParseTraceparent(h)
	if !ok {
		t.Fatalf("ParseTraceparent(%q) rejected own output", h)
	}
	if got != sc {
		t.Fatalf("round trip: got %+v want %+v", got, sc)
	}
}

func TestTraceparentMalformed(t *testing.T) {
	valid := "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	if _, ok := ParseTraceparent(valid); !ok {
		t.Fatalf("canonical example rejected")
	}
	// A future version may carry extra fields after the flags.
	if _, ok := ParseTraceparent("42-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-extra"); !ok {
		t.Fatalf("future-version with suffix rejected")
	}
	bad := []string{
		"",
		"00",
		valid[:54],             // truncated
		valid + "x",            // version 00 must be exactly 55 chars
		"ff" + valid[2:],       // version ff is forbidden
		"00_" + valid[3:],      // bad separator
		strings.ToUpper(valid), // uppercase hex is invalid
		"00-" + strings.Repeat("0", 32) + "-00f067aa0ba902b7-01",                 // zero trace id
		"00-4bf92f3577b34da6a3ce929d0e0e4736-" + strings.Repeat("0", 16) + "-01", // zero span id
		"00-4bf92f3577b34da6a3ce929dXe0e4736-00f067aa0ba902b7-01",                // non-hex
	}
	for _, h := range bad {
		if _, ok := ParseTraceparent(h); ok {
			t.Errorf("ParseTraceparent(%q) accepted malformed input", h)
		}
	}
	if Traceparent(SpanContext{}) != "" {
		t.Fatal("invalid context rendered non-empty traceparent")
	}
}

func TestSpanTree(t *testing.T) {
	tr := New(16)
	root := tr.Start(SpanContext{}, "job")
	if root.Parent != (SpanID{}) {
		t.Fatal("root has a parent")
	}
	child := tr.Start(root.Context(), "sim.run")
	child.SetStr("app", "delaunay").SetInt("cells", 4).SetBool("mmap", true)
	if child.Trace != root.Trace {
		t.Fatal("child not in parent's trace")
	}
	if child.Parent != root.ID {
		t.Fatal("child not parented to root")
	}
	child.End()
	root.End()

	spans := tr.Collect(root.Trace)
	if len(spans) != 2 {
		t.Fatalf("Collect: %d spans, want 2", len(spans))
	}
	// Sorted by start: root first.
	if spans[0].Name != "job" || spans[1].Name != "sim.run" {
		t.Fatalf("order: %q, %q", spans[0].Name, spans[1].Name)
	}
	a, ok := spans[1].Attr("app")
	if !ok {
		t.Fatal("attr app missing")
	}
	if v, _ := a.IsStr(); v != "delaunay" {
		t.Fatalf("attr app = %q", v)
	}
	if v, ok := spans[1].Attr("mmap"); !ok {
		t.Fatal("attr mmap missing")
	} else if b, _ := v.IsBool(); !b {
		t.Fatal("attr mmap = false")
	}
	if tr.Total() != 2 {
		t.Fatalf("Total = %d, want 2", tr.Total())
	}
}

func TestRingEviction(t *testing.T) {
	tr := New(4)
	root := tr.Start(SpanContext{}, "root")
	sc := root.Context()
	root.End()
	for i := 0; i < 10; i++ {
		tr.Start(sc, "child").End()
	}
	spans := tr.Collect(sc.Trace)
	if len(spans) != 4 {
		t.Fatalf("ring retained %d spans, want 4", len(spans))
	}
	if tr.Total() != 11 {
		t.Fatalf("Total = %d, want 11", tr.Total())
	}
}

func TestNilSafety(t *testing.T) {
	var tr *Tracer
	s := tr.Start(SpanContext{}, "x")
	if s != nil {
		t.Fatal("nil tracer returned a span")
	}
	s.SetStr("k", "v").SetInt("n", 1).SetBool("b", true)
	s.End()
	s.EndDuration(time.Second)
	if s.Context().Valid() {
		t.Fatal("nil span has valid context")
	}
	tr.Emit(Span{})
	tr.SetSink(&bytes.Buffer{})
	if tr.Collect(newTraceID()) != nil || tr.Total() != 0 {
		t.Fatal("nil tracer retained spans")
	}
}

func TestAttrOverflowDropped(t *testing.T) {
	tr := New(4)
	s := tr.Start(SpanContext{}, "x")
	for i := 0; i < maxAttrs+3; i++ {
		s.SetInt("k", int64(i))
	}
	if len(s.Attrs()) != maxAttrs {
		t.Fatalf("attrs = %d, want cap %d", len(s.Attrs()), maxAttrs)
	}
	s.End()
}

func TestJSONRoundTrip(t *testing.T) {
	tr := New(8)
	var sink bytes.Buffer
	tr.SetSink(&sink)
	root := tr.Start(SpanContext{}, "job")
	child := tr.Start(root.Context(), `sim "run"`)
	child.SetStr("app", "delaunay").SetInt("cells", 42).SetBool("mmap", false)
	child.End()
	root.End()

	spans, err := ParseSpans(&sink)
	if err != nil {
		t.Fatalf("ParseSpans: %v", err)
	}
	if len(spans) != 2 {
		t.Fatalf("parsed %d spans, want 2", len(spans))
	}
	// Sink order is End order: child first.
	got := spans[0]
	if got.Name != `sim "run"` {
		t.Fatalf("name = %q", got.Name)
	}
	if got.Trace != root.Trace {
		// root was recycled; compare against the collected copy instead
	}
	if got.Parent != spans[1].ID {
		t.Fatalf("parent link lost in round trip")
	}
	if v, ok := got.Attr("cells"); !ok {
		t.Fatal("cells attr missing")
	} else if n, _ := v.IsInt(); n != 42 {
		t.Fatalf("cells = %d", n)
	}
	if v, ok := got.Attr("mmap"); !ok {
		t.Fatal("mmap attr missing")
	} else if b, isB := v.IsBool(); !isB || b {
		t.Fatalf("mmap attr wrong: %v %v", b, isB)
	}
	if v, ok := got.Attr("app"); !ok {
		t.Fatal("app attr missing")
	} else if s, _ := v.IsStr(); s != "delaunay" {
		t.Fatalf("app = %q", s)
	}
	if spans[1].Parent != (SpanID{}) {
		t.Fatal("root grew a parent")
	}
}

// TestParseSpanKeepsAttrOrder: attributes come back in the order the
// emitter set them, so renderings of a parsed trace are stable.
func TestParseSpanKeepsAttrOrder(t *testing.T) {
	line := `{"trace":"0af7651916cd43dd8448eb211c80319c","span":"00f067aa0ba902b7","name":"sim.run","start_us":1,"dur_us":2,` +
		`"attrs":{"scheme":"jigsaw","app":"mix","cells":2,"accesses":400000,"nested":{"x":1},"mmap":true}}`
	s, err := ParseSpan([]byte(line))
	if err != nil {
		t.Fatal(err)
	}
	var keys []string
	for _, a := range s.Attrs() {
		keys = append(keys, a.Key)
	}
	if got, want := strings.Join(keys, ","), "scheme,app,cells,accesses,mmap"; got != want {
		t.Fatalf("attr order = %s, want %s", got, want)
	}
	if _, err := ParseSpan([]byte(`{"trace":"0af7651916cd43dd8448eb211c80319c","span":"00f067aa0ba902b7","attrs":[1]}`)); err == nil {
		t.Fatal("non-object attrs accepted")
	}
}

func TestParseSpansRejectsGarbage(t *testing.T) {
	if _, err := ParseSpans(strings.NewReader("{\"trace\":\"zz\"}\n")); err == nil {
		t.Fatal("bad trace id accepted")
	}
	if _, err := ParseSpans(strings.NewReader("not json\n")); err == nil {
		t.Fatal("non-JSON accepted")
	}
	spans, err := ParseSpans(strings.NewReader("\n  \n"))
	if err != nil || len(spans) != 0 {
		t.Fatalf("blank input: %v, %d spans", err, len(spans))
	}
}

func TestEmitStitch(t *testing.T) {
	tr := New(8)
	root := tr.Start(SpanContext{}, "job")
	rootSC := root.Context()
	root.End()

	// A remote worker's span arrives pre-built (parsed from JSONL).
	remote := Span{
		Trace:  rootSC.Trace,
		ID:     newSpanID(),
		Parent: rootSC.Span,
		Name:   "sweep.cell",
		Start:  time.Now(),
		Dur:    time.Millisecond,
	}
	tr.Emit(remote)
	spans := tr.Collect(rootSC.Trace)
	if len(spans) != 2 {
		t.Fatalf("stitched trace has %d spans, want 2", len(spans))
	}
	if spans[1].Parent != rootSC.Span {
		t.Fatal("stitched span lost its parent link")
	}
}

// TestSpanEmitZeroAlloc is the alloc guard behind the sweep hot loop
// budget: starting, attributing and ending a span must not allocate
// once the pool is warm.
func TestSpanEmitZeroAlloc(t *testing.T) {
	tr := New(128)
	parent := SpanContext{Trace: newTraceID(), Span: newSpanID()}
	emit := func() {
		s := tr.Start(parent, "sim.run")
		s.SetStr("app", "delaunay")
		s.SetStr("scheme", "whirlpool")
		s.SetInt("cells", 1)
		s.End()
	}
	emit() // warm the pool
	if avg := testing.AllocsPerRun(200, emit); avg != 0 {
		t.Fatalf("span emit allocates %v per run, want 0", avg)
	}
}

func TestLoggerShape(t *testing.T) {
	var buf bytes.Buffer
	log := NewLogger(&buf, "whirld")
	log.Info("listening", "addr", "127.0.0.1:9090")
	if got := buf.String(); got != "whirld: listening addr=127.0.0.1:9090\n" {
		t.Fatalf("line = %q", got)
	}
	buf.Reset()
	log.Warn("lease expired", "worker", "w1", "epoch", 3)
	if got := buf.String(); got != "whirld: warning: lease expired worker=w1 epoch=3\n" {
		t.Fatalf("line = %q", got)
	}
	buf.Reset()
	log.Error("boom", "err", "it broke badly")
	if got := buf.String(); got != "whirld: error: boom err=\"it broke badly\"\n" {
		t.Fatalf("line = %q", got)
	}
	buf.Reset()
	log.Debug("hidden")
	if buf.Len() != 0 {
		t.Fatalf("debug leaked: %q", buf.String())
	}
	buf.Reset()
	log.With("job", "j1").WithGroup("fleet").Info("msg", "worker", "w2")
	if got := buf.String(); got != "whirld: msg job=j1 fleet.worker=w2\n" {
		t.Fatalf("with/group line = %q", got)
	}
}

func TestContextRoundTrip(t *testing.T) {
	sc := SpanContext{Trace: newTraceID(), Span: newSpanID()}
	ctx := NewContext(context.Background(), sc)
	got, ok := FromContext(ctx)
	if !ok || got != sc {
		t.Fatalf("FromContext = %+v, %v", got, ok)
	}
	if _, ok := FromContext(context.Background()); ok {
		t.Fatal("empty context yielded a span context")
	}
}

func BenchmarkSpanEmit(b *testing.B) {
	tr := New(DefaultRingSize)
	parent := SpanContext{Trace: newTraceID(), Span: newSpanID()}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := tr.Start(parent, "sim.run")
		s.SetStr("app", "delaunay")
		s.SetStr("scheme", "whirlpool")
		s.SetInt("cells", 1)
		s.End()
	}
}

func BenchmarkSpanJSON(b *testing.B) {
	tr := New(8)
	s := tr.Start(SpanContext{}, "sim.run")
	s.SetStr("app", "delaunay").SetInt("cells", 4).SetBool("mmap", true)
	s.Dur = 123 * time.Microsecond
	var buf []byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = appendSpanJSON(buf[:0], s)
	}
}
