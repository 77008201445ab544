package main

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"whirlpool/internal/obs"
)

// spansCmd renders a span-JSONL trace (the GET /v1/jobs/{id}/trace
// payload, or a tracer sink file) as a text waterfall: the tree by
// parent links, each span with its offset from the trace start, a
// scaled duration bar, and per-name aggregates, the sweep.cell
// utilization and the critical path at the bottom.
func spansCmd(args []string) {
	fs := flag.NewFlagSet("spans", flag.ExitOnError)
	width := fs.Int("width", 40, "waterfall bar width in characters")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, `usage: whirltool spans [-width N] <file | - | http(s)://...>

Renders a span-JSONL trace as a text waterfall. The input is a file of
one JSON span per line, "-" for stdin, or a URL (typically a whirld
job's /v1/jobs/{id}/trace endpoint).`)
		fs.PrintDefaults()
	}
	fs.Parse(args)
	if fs.NArg() != 1 {
		fs.Usage()
		os.Exit(2)
	}
	spans, err := readSpans(fs.Arg(0))
	if err != nil {
		fatal(err)
	}
	if len(spans) == 0 {
		fatal(fmt.Errorf("no spans in %s", fs.Arg(0)))
	}
	if err := renderSpans(os.Stdout, spans, *width); err != nil {
		fatal(err)
	}
}

// readSpans loads span JSONL from a file, stdin ("-"), or a URL.
func readSpans(src string) ([]obs.Span, error) {
	var r io.ReadCloser
	switch {
	case src == "-":
		r = os.Stdin
	case strings.HasPrefix(src, "http://") || strings.HasPrefix(src, "https://"):
		resp, err := http.Get(src)
		if err != nil {
			return nil, err
		}
		if resp.StatusCode != http.StatusOK {
			body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
			resp.Body.Close()
			return nil, fmt.Errorf("GET %s: %s: %s", src, resp.Status, strings.TrimSpace(string(body)))
		}
		r = resp.Body
	default:
		f, err := os.Open(src)
		if err != nil {
			return nil, err
		}
		r = f
	}
	defer r.Close()
	return obs.ParseSpans(r)
}

// spanNode is one span plus its resolved children, ordered by start.
type spanNode struct {
	span     obs.Span
	children []*spanNode
}

// buildTree links spans into trees by parent span ID. Spans whose
// parent is absent from the set (e.g. a caller's request span that
// lives in another process) render as additional roots.
func buildTree(spans []obs.Span) []*spanNode {
	nodes := make([]*spanNode, len(spans))
	byID := map[obs.SpanID]*spanNode{}
	for i := range spans {
		nodes[i] = &spanNode{span: spans[i]}
		byID[spans[i].ID] = nodes[i]
	}
	var roots []*spanNode
	for _, n := range nodes {
		if p := byID[n.span.Parent]; p != nil && p != n {
			p.children = append(p.children, n)
		} else {
			roots = append(roots, n)
		}
	}
	order := func(ns []*spanNode) {
		sort.SliceStable(ns, func(i, j int) bool {
			if !ns[i].span.Start.Equal(ns[j].span.Start) {
				return ns[i].span.Start.Before(ns[j].span.Start)
			}
			return ns[i].span.Name < ns[j].span.Name
		})
	}
	for _, n := range nodes {
		order(n.children)
	}
	order(roots)
	return roots
}

// renderSpans writes the waterfall, the per-name aggregate table, the
// sweep.cell utilization line (when the trace has cells), and the
// critical path.
func renderSpans(w io.Writer, spans []obs.Span, width int) error {
	if width < 10 {
		width = 10
	}
	roots := buildTree(spans)

	// The timeline spans the earliest start to the latest end.
	t0 := spans[0].Start
	var tEnd time.Time
	for _, sp := range spans {
		if sp.Start.Before(t0) {
			t0 = sp.Start
		}
		if end := sp.Start.Add(sp.Dur); end.After(tEnd) {
			tEnd = end
		}
	}
	total := tEnd.Sub(t0)
	if total <= 0 {
		total = time.Microsecond
	}

	fmt.Fprintf(w, "trace %s: %d spans, %s\n\n", spans[0].Trace, len(spans), fmtDur(total))
	var walk func(n *spanNode, depth int)
	walk = func(n *spanNode, depth int) {
		sp := n.span
		off := sp.Start.Sub(t0)
		lead := int(int64(width) * int64(off) / int64(total))
		bar := int(int64(width) * int64(sp.Dur) / int64(total))
		if bar < 1 {
			bar = 1
		}
		if lead+bar > width {
			bar = width - lead
			if bar < 1 {
				lead, bar = width-1, 1
			}
		}
		lane := strings.Repeat(" ", lead) + strings.Repeat("█", bar) + strings.Repeat(" ", width-lead-bar)
		label := strings.Repeat("  ", depth) + sp.Name
		attrs := renderAttrs(sp)
		fmt.Fprintf(w, "%-32s |%s| %8s @ %-8s%s\n", clip(label, 32), lane, fmtDur(sp.Dur), fmtDur(off), attrs)
		for _, c := range n.children {
			walk(c, depth+1)
		}
	}
	for _, r := range roots {
		walk(r, 0)
	}

	// Per-name aggregates.
	type agg struct {
		name  string
		n     int
		total time.Duration
		max   time.Duration
	}
	aggs := map[string]*agg{}
	var names []string
	for _, sp := range spans {
		a := aggs[sp.Name]
		if a == nil {
			a = &agg{name: sp.Name}
			aggs[sp.Name] = a
			names = append(names, sp.Name)
		}
		a.n++
		a.total += sp.Dur
		if sp.Dur > a.max {
			a.max = sp.Dur
		}
	}
	sort.Slice(names, func(i, j int) bool { return aggs[names[i]].total > aggs[names[j]].total })
	fmt.Fprintf(w, "\n%-24s %6s %10s %10s %10s\n", "span", "count", "total", "mean", "max")
	for _, name := range names {
		a := aggs[name]
		fmt.Fprintf(w, "%-24s %6d %10s %10s %10s\n",
			clip(a.name, 24), a.n, fmtDur(a.total), fmtDur(a.total/time.Duration(a.n)), fmtDur(a.max))
	}

	if u, ok := cellUtilization(spans); ok {
		fmt.Fprintf(w, "\nsweep.cell utilization: concurrency %d, window %s, busy %s, idle %.3f\n",
			u.concurrency, fmtDur(u.window), fmtDur(u.busy), u.idle)
	}

	// Critical path: from each root, repeatedly descend into the child
	// that finishes last — the chain that bounded the trace's wall time.
	var best []*spanNode
	var bestEnd time.Time
	for _, r := range roots {
		if end := r.span.Start.Add(r.span.Dur); best == nil || end.After(bestEnd) {
			best, bestEnd = []*spanNode{r}, end
		}
	}
	if best != nil {
		for {
			n := best[len(best)-1]
			var last *spanNode
			var lastEnd time.Time
			for _, c := range n.children {
				if end := c.span.Start.Add(c.span.Dur); last == nil || end.After(lastEnd) {
					last, lastEnd = c, end
				}
			}
			if last == nil {
				break
			}
			best = append(best, last)
		}
		parts := make([]string, len(best))
		for i, n := range best {
			parts[i] = fmt.Sprintf("%s (%s)", n.span.Name, fmtDur(n.span.Dur))
		}
		fmt.Fprintf(w, "\ncritical path: %s\n", strings.Join(parts, " → "))
	}
	return nil
}

// utilization summarizes how well a sweep kept its workers busy.
type utilization struct {
	concurrency int           // most sweep.cell spans open at once
	window      time.Duration // first cell start to last cell end
	busy        time.Duration // sum of cell durations
	idle        float64       // 1 - busy / (concurrency × window)
}

// cellUtilization measures the sweep.cell spans: the worker count is
// taken as their peak overlap, and idle is the share of those workers'
// time inside the cell window that no cell covered — the formula
// perfbench reports as experiments.idle_frac. A scheduler tail (one
// long batch finishing alone) shows up as high idle. ok is false when
// the trace has no sweep.cell spans.
func cellUtilization(spans []obs.Span) (u utilization, ok bool) {
	type edge struct {
		at    time.Time
		delta int
	}
	var edges []edge
	var first, last time.Time
	for _, sp := range spans {
		if sp.Name != "sweep.cell" {
			continue
		}
		end := sp.Start.Add(sp.Dur)
		if first.IsZero() || sp.Start.Before(first) {
			first = sp.Start
		}
		if end.After(last) {
			last = end
		}
		u.busy += sp.Dur
		edges = append(edges, edge{sp.Start, +1}, edge{end, -1})
	}
	if len(edges) == 0 {
		return u, false
	}
	// A cell ending exactly when another starts does not overlap it, so
	// at equal times ends sort first.
	sort.Slice(edges, func(i, j int) bool {
		if !edges[i].at.Equal(edges[j].at) {
			return edges[i].at.Before(edges[j].at)
		}
		return edges[i].delta < edges[j].delta
	})
	open := 0
	for _, e := range edges {
		open += e.delta
		u.concurrency = max(u.concurrency, open)
	}
	u.window = last.Sub(first)
	if u.window > 0 {
		u.idle = 1 - u.busy.Seconds()/(float64(u.concurrency)*u.window.Seconds())
	}
	return u, true
}

// renderAttrs formats a span's attributes as " k=v ..." (empty when the
// span has none).
func renderAttrs(sp obs.Span) string {
	attrs := sp.Attrs()
	if len(attrs) == 0 {
		return ""
	}
	var b strings.Builder
	for _, a := range attrs {
		fmt.Fprintf(&b, " %s=%v", a.Key, a.Value())
	}
	return b.String()
}

func clip(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n-1] + "…"
}

// fmtDur renders a duration compactly with µs resolution at the bottom.
func fmtDur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.1fms", float64(d.Microseconds())/1000)
	default:
		return fmt.Sprintf("%dµs", d.Microseconds())
	}
}
