package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/csv"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"whirlpool/internal/experiments"
)

// Golden rows are the deterministic columns of every sweep cell, as
// whirlsweep -format csv prints them minus wall_ms and error: the same
// cut the ROADMAP grid digest uses. They are keyed by the cell's
// content address, which covers the app spec, scheme, scale and seed.

// detColumns is the golden file header after its seed and scale columns.
var detColumns = []string{
	"app", "scheme", "mix", "cycles", "instrs", "ipc", "apki", "mpki",
	"llc_accesses", "hits", "misses", "bypasses",
	"energy_pj", "network_energy_pj", "bank_energy_pj", "memory_energy_pj", "key",
}

// detLine renders a row's deterministic columns as one CSV line.
func detLine(r experiments.SweepRow) string {
	var buf bytes.Buffer
	if err := experiments.WriteRowsCSV(&buf, []experiments.SweepRow{r}); err != nil {
		panic(err) // writing to a bytes.Buffer cannot fail
	}
	recs, err := csv.NewReader(&buf).ReadAll()
	if err != nil || len(recs) != 2 {
		panic(fmt.Sprintf("perfbench: unexpected sweep CSV shape: %v", err))
	}
	head, vals := recs[0], recs[1]
	out := make([]string, 0, len(detColumns))
	for i, h := range head {
		if h != "wall_ms" && h != "error" {
			out = append(out, vals[i])
		}
	}
	return strings.Join(out, ",")
}

// rowsDigest is a short sha256 over the rows' deterministic lines in
// grid order: equal digests mean bit-identical simulated results.
func rowsDigest(lines []string) string {
	h := sha256.Sum256([]byte(strings.Join(lines, "\n")))
	return hex.EncodeToString(h[:8])
}

// rowInvariantErr checks what every finished row must satisfy
// regardless of its inputs.
func rowInvariantErr(r experiments.SweepRow) error {
	switch {
	case r.Err != "":
		return fmt.Errorf("%s/%s: error row: %.200s", r.App, r.Scheme, r.Err)
	case r.Instrs == 0 || r.Cycles == 0 || r.LLCAccesses == 0:
		return fmt.Errorf("%s/%s: empty run", r.App, r.Scheme)
	case r.Hits+r.Misses+r.Bypasses != r.LLCAccesses:
		return fmt.Errorf("%s/%s: hits+misses+bypasses %d != llc_accesses %d",
			r.App, r.Scheme, r.Hits+r.Misses+r.Bypasses, r.LLCAccesses)
	case r.Key == "":
		return fmt.Errorf("%s/%s: row has no cell key", r.App, r.Scheme)
	}
	return nil
}

// golden holds one workload's committed rows.
type golden struct {
	byKey map[string]string // cell key -> deterministic line
	// covered marks the (seed, scale) pairs the file has rows for; a run
	// on a covered pair must match every cell.
	covered map[string]bool
}

func coverKey(seed uint64, scale float64) string {
	return strconv.FormatUint(seed, 10) + "@" + strconv.FormatFloat(scale, 'g', -1, 64)
}

func goldenPath(dir, workload string) string { return filepath.Join(dir, workload+".csv") }

// loadGolden reads dir/<workload>.csv. A missing file is an empty set.
func loadGolden(dir, workload string) (*golden, error) {
	g := &golden{byKey: map[string]string{}, covered: map[string]bool{}}
	f, err := os.Open(goldenPath(dir, workload))
	if os.IsNotExist(err) {
		return g, nil
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return g, g.read(f)
}

func (g *golden) read(r io.Reader) error {
	cr := csv.NewReader(r)
	head, err := cr.Read()
	if err != nil {
		return fmt.Errorf("golden: %w", err)
	}
	if want := append([]string{"seed", "scale"}, detColumns...); strings.Join(head, ",") != strings.Join(want, ",") {
		return fmt.Errorf("golden: header %v, want %v", head, want)
	}
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return fmt.Errorf("golden: %w", err)
		}
		seed, err := strconv.ParseUint(rec[0], 10, 64)
		if err != nil {
			return fmt.Errorf("golden: seed %q: %w", rec[0], err)
		}
		scale, err := strconv.ParseFloat(rec[1], 64)
		if err != nil {
			return fmt.Errorf("golden: scale %q: %w", rec[1], err)
		}
		g.covered[coverKey(seed, scale)] = true
		g.byKey[rec[len(rec)-1]] = strings.Join(rec[2:], ",")
	}
}

// rowChecker validates the rows of repeated sweeps of one grid: against
// the golden rows when the file covers the run's seed and scale, else
// against the run's own first sweep (determinism), and always against
// the row invariants.
type rowChecker struct {
	g      *golden
	strict bool     // golden rows cover this seed and scale
	first  []string // first sweep's lines (determinism reference)
	// Digest is the latest checked sweep's row digest.
	Digest string
	// Bad flags the latest checked sweep's failed rows, in row order.
	Bad []bool
	// Errors keeps the first few failures for the notes.
	Errors []string
}

func newRowChecker(g *golden, seed uint64, scale float64) *rowChecker {
	return &rowChecker{g: g, strict: g.covered[coverKey(seed, scale)]}
}

// mode describes what the rows are compared against.
func (c *rowChecker) mode() string {
	if c.strict {
		return "golden"
	}
	return "self"
}

// check returns how many of rows fail.
func (c *rowChecker) check(rows []experiments.SweepRow) int {
	lines := make([]string, len(rows))
	c.Bad = make([]bool, len(rows))
	failed := 0
	for i, r := range rows {
		lines[i] = detLine(r)
		err := rowInvariantErr(r)
		switch {
		case err != nil:
		case c.strict:
			if want, ok := c.g.byKey[r.Key]; !ok {
				err = fmt.Errorf("%s/%s: no golden row for key %s", r.App, r.Scheme, r.Key)
			} else if want != lines[i] {
				err = fmt.Errorf("%s/%s: row differs from golden:\n  got  %s\n  want %s", r.App, r.Scheme, lines[i], want)
			}
		case c.first != nil:
			if i >= len(c.first) || c.first[i] != lines[i] {
				err = fmt.Errorf("%s/%s: row differs from the run's first sweep", r.App, r.Scheme)
			}
		}
		if err != nil {
			failed++
			c.Bad[i] = true
			if len(c.Errors) < 5 {
				c.Errors = append(c.Errors, err.Error())
			}
		}
	}
	if c.first == nil {
		c.first = lines
	}
	c.Digest = rowsDigest(lines)
	return failed
}

// regenerateGolden rewrites the golden files of both sweep workloads
// for the given seeds, one sweep per seed at full size.
func regenerateGolden(o options, seedList string, log io.Writer) error {
	var seeds []uint64
	for _, s := range strings.Split(seedList, ",") {
		v, err := strconv.ParseUint(strings.TrimSpace(s), 10, 64)
		if err != nil {
			return fmt.Errorf("bad seed %q", s)
		}
		seeds = append(seeds, v)
	}
	for _, grid := range []sweepGrid{warmGrid(o.size), coldGrid(o.size)} {
		var buf bytes.Buffer
		w := csv.NewWriter(&buf)
		_ = w.Write(append([]string{"seed", "scale"}, detColumns...))
		for _, seed := range seeds {
			h := experiments.NewHarness(grid.scale)
			h.Seed = seed
			rows, err := h.Sweep(grid.config(nil))
			if err != nil {
				return err
			}
			for _, r := range rows {
				if err := rowInvariantErr(r); err != nil {
					return err
				}
				rec := append([]string{strconv.FormatUint(seed, 10), strconv.FormatFloat(grid.scale, 'g', -1, 64)},
					strings.Split(detLine(r), ",")...)
				_ = w.Write(rec)
			}
			fmt.Fprintf(log, "golden %s seed %d: %d rows\n", grid.name, seed, len(rows))
		}
		w.Flush()
		if err := w.Error(); err != nil {
			return err
		}
		if err := os.WriteFile(goldenPath(o.goldenDir, grid.name), buf.Bytes(), 0o666); err != nil {
			return err
		}
	}
	return nil
}
