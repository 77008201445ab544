package trace_test

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/iotest"

	"whirlpool/internal/addr"
	"whirlpool/internal/trace"
	"whirlpool/internal/workloads"
)

// roundTrip encodes tr and decodes it back, failing the test on error.
func roundTrip(t *testing.T, tr *trace.LLCTrace) *trace.LLCTrace {
	t.Helper()
	var buf bytes.Buffer
	wn, err := tr.WriteTo(&buf)
	if err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	if wn != int64(buf.Len()) {
		t.Fatalf("WriteTo reported %d bytes, wrote %d", wn, buf.Len())
	}
	got := &trace.LLCTrace{}
	rn, err := got.ReadFrom(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ReadFrom: %v", err)
	}
	if rn != wn {
		t.Fatalf("ReadFrom consumed %d bytes, want %d", rn, wn)
	}
	return got
}

// sameTrace compares two traces access-by-access and stat-by-stat.
func sameTrace(t *testing.T, name string, a, b trace.Reader) {
	t.Helper()
	if a.Stats() != b.Stats() {
		t.Fatalf("%s: stats %+v != %+v", name, a.Stats(), b.Stats())
	}
	if a.NumAccesses() != b.NumAccesses() {
		t.Fatalf("%s: %d accesses != %d", name, a.NumAccesses(), b.NumAccesses())
	}
	ca, cb := a.NewCursor(), b.NewCursor()
	for i := 0; ; i++ {
		x, okx := ca.Next()
		y, oky := cb.Next()
		if okx != oky {
			t.Fatalf("%s: streams end at different lengths near %d", name, i)
		}
		if !okx {
			return
		}
		if x != y {
			t.Fatalf("%s: access %d: %+v != %+v", name, i, x, y)
		}
	}
}

// TestCodecRoundTripBuiltins encodes and decodes every built-in app's
// filtered trace at small scale and requires the decoded stream to be
// identical to the generator's.
func TestCodecRoundTripBuiltins(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite round trip is not short")
	}
	for _, spec := range workloads.Specs() {
		w := workloads.Build(spec, 0.002)
		tr := trace.FilterPrivate(w.Stream(1))
		got := roundTrip(t, tr)
		sameTrace(t, spec.Name, tr, got)
	}
}

func TestCodecRoundTripEmpty(t *testing.T) {
	tr := &trace.LLCTrace{}
	got := roundTrip(t, tr)
	sameTrace(t, "empty", tr, got)
}

// encodeOne encodes the small deterministic trace the robustness tests
// (and the fuzz seeds) cut and corrupt.
func encodeOne(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := trace.SampleTrace().WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestCodecTruncated cuts the encoding at every length bucket: each
// prefix must produce an error, never a panic or a silent success.
func TestCodecTruncated(t *testing.T) {
	data := encodeOne(t)
	cuts := []int{0, 1, 3, 4, 7, 8, 20, len(data) / 4, len(data) / 2, len(data) - 5, len(data) - 1}
	for _, cut := range cuts {
		got := &trace.LLCTrace{}
		if _, err := got.ReadFrom(bytes.NewReader(data[:cut])); err == nil {
			t.Fatalf("truncation at %d of %d bytes decoded without error", cut, len(data))
		}
	}
}

// TestCodecCorrupt flips single bytes across the file: every flip must
// surface as an error (header sanity, CRC, or varint validation).
func TestCodecCorrupt(t *testing.T) {
	data := encodeOne(t)
	for _, pos := range []int{8, 16, 40, 80, len(data) / 2, len(data) - 2} {
		bad := bytes.Clone(data)
		bad[pos] ^= 0x5a
		got := &trace.LLCTrace{}
		if _, err := got.ReadFrom(bytes.NewReader(bad)); err == nil {
			t.Fatalf("corrupt byte at %d decoded without error", pos)
		}
	}
}

func TestCodecBadMagic(t *testing.T) {
	got := &trace.LLCTrace{}
	_, err := got.ReadFrom(strings.NewReader("ELF\x7fnot a trace at all, padding padding"))
	if err == nil || !strings.Contains(err.Error(), "magic") {
		t.Fatalf("bad magic error = %v", err)
	}
}

func TestCodecWrongVersion(t *testing.T) {
	data := encodeOne(t)
	bad := bytes.Clone(data)
	bad[4] = 0x63 // version 99
	got := &trace.LLCTrace{}
	_, err := got.ReadFrom(bytes.NewReader(bad))
	if err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("wrong version error = %v", err)
	}
}

func TestWriteFileReadFile(t *testing.T) {
	w := workloads.Build(mustSpec(t, "delaunay"), 0.01)
	tr := trace.FilterPrivate(w.Stream(1))
	path := filepath.Join(t.TempDir(), "dt.wtrc")
	if err := trace.WriteFile(path, tr); err != nil {
		t.Fatal(err)
	}
	got, err := trace.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sameTrace(t, "delaunay file", tr, got)
	// No temp droppings left behind by the atomic write.
	ents, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Fatalf("cache dir has %d entries, want 1", len(ents))
	}
}

func TestReadFileMissing(t *testing.T) {
	if _, err := trace.ReadFile(filepath.Join(t.TempDir(), "nope.wtrc")); err == nil {
		t.Fatal("missing file must error")
	}
}

func mustSpec(t *testing.T, name string) workloads.AppSpec {
	t.Helper()
	s, ok := workloads.ByName(name)
	if !ok {
		t.Fatalf("unknown app %s", name)
	}
	return s
}

// TestCodecRoundTripLarge decodes an image larger than the size
// ReadFrom preallocates from a header alone, so its buffer grows as the
// bytes arrive instead.
func TestCodecRoundTripLarge(t *testing.T) {
	tr := &trace.LLCTrace{}
	for i := 0; i < 2_000_000; i++ {
		tr.Append(trace.LLCAccess{Line: addr.Line(i) << 40, Gap: 1 << 30, Write: i%5 == 0})
	}
	if tr.EncodedBytes() <= 1<<24 {
		t.Fatalf("trace is only %d bytes; the test needs more than 16 MiB", tr.EncodedBytes())
	}
	sameTrace(t, "large", tr, roundTrip(t, tr))
}

// TestCodecReadError passes a reader's own failure through, wrapped.
func TestCodecReadError(t *testing.T) {
	data := encodeOne(t)
	boom := errors.New("disk on fire")
	r := io.MultiReader(bytes.NewReader(data[:200]), iotest.ErrReader(boom))
	if _, err := (&trace.LLCTrace{}).ReadFrom(r); !errors.Is(err, boom) {
		t.Fatalf("ReadFrom error = %v, want %v", err, boom)
	}
}
