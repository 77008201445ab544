package trace

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"whirlpool/internal/addr"
)

// sampleTrace is the small deterministic trace the codec tests encode:
// demand reads and writes with every seventh access followed by a
// writeback.
func sampleTrace() *LLCTrace {
	tr := &LLCTrace{}
	for i := 0; i < 1000; i++ {
		tr.Append(LLCAccess{Line: addr.Line(i * 17), Gap: uint32(i % 100), Write: i%3 == 0})
		if i%7 == 0 {
			tr.Append(LLCAccess{Line: addr.Line(i), Writeback: true})
		}
	}
	tr.Instrs = 50000
	return tr
}

// errClass names the validation step an error comes from, ignoring the
// details (sizes, offsets, path prefix) that differ between entry points.
func errClass(err error) string {
	for _, class := range []string{
		"not a .wtrc trace", "unsupported .wtrc version", "truncated header",
		"truncated delta column", "truncated gap column", "truncated flag bitsets",
		"truncated checksum", "checksum mismatch", "corrupt .wtrc header",
		"corrupt .wtrc delta column", "corrupt .wtrc gap column", "corrupt .wtrc payload",
	} {
		if strings.Contains(err.Error(), class) {
			return class
		}
	}
	return "other: " + err.Error()
}

// FuzzParseWTRC feeds arbitrary bytes to the one .wtrc parser through
// all three entry points. Parsing never panics; OpenMapped and ReadFrom
// fail with the same error class whenever the parse fails; and a parsed
// trace's cursor replays exactly NumAccesses accesses or reports Err —
// the same error ReadFrom's up-front walk reports.
func FuzzParseWTRC(f *testing.F) {
	for _, tr := range []*LLCTrace{{}, sampleTrace()} {
		var buf bytes.Buffer
		if _, err := tr.WriteTo(&buf); err != nil {
			f.Fatal(err)
		}
		data := buf.Bytes()
		f.Add(data)
		for _, cut := range []int{0, 3, 7, 8 + headerBytes - 1, len(data) / 2, len(data) - 1} {
			if cut < len(data) {
				f.Add(data[:cut])
			}
		}
		for _, pos := range []int{4, 8, 16, 40, 80, len(data) / 2, len(data) - 2} {
			if pos < len(data) {
				bad := bytes.Clone(data)
				bad[pos] ^= 0x5a
				f.Add(bad)
			}
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, perr := parseWTRC(data)
		var streamed LLCTrace
		_, rerr := streamed.ReadFrom(bytes.NewReader(data))
		path := filepath.Join(t.TempDir(), "f.wtrc")
		if err := os.WriteFile(path, data, 0o666); err != nil {
			t.Fatal(err)
		}
		mapped, merr := OpenMapped(path)
		if merr == nil {
			defer mapped.Close()
		}
		if perr != nil {
			if merr == nil || rerr == nil {
				t.Fatalf("parse failed (%v) but OpenMapped err %v, ReadFrom err %v", perr, merr, rerr)
			}
			if errClass(merr) != errClass(perr) || errClass(rerr) != errClass(perr) {
				t.Fatalf("error classes disagree: parse %q, OpenMapped %q, ReadFrom %q", perr, merr, rerr)
			}
			return
		}
		if merr != nil {
			t.Fatalf("parse succeeded but OpenMapped failed: %v", merr)
		}
		c := tr.NewCursor()
		n := 0
		for {
			if _, ok := c.Next(); !ok {
				break
			}
			n++
		}
		switch {
		case c.Err() == nil && n != tr.NumAccesses():
			t.Fatalf("cursor replayed %d of %d accesses without an error", n, tr.NumAccesses())
		case c.Err() != nil && (rerr == nil || rerr.Error() != c.Err().Error()):
			t.Fatalf("cursor error %q, ReadFrom error %v", c.Err(), rerr)
		case c.Err() == nil && rerr != nil && errClass(rerr) != "corrupt .wtrc payload":
			t.Fatalf("clean replay but ReadFrom failed: %v", rerr)
		}
	})
}
