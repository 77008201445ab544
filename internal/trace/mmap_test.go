package trace_test

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"whirlpool/internal/addr"
	"whirlpool/internal/trace"
	"whirlpool/internal/workloads"
)

// writeWTRC dumps tr to a .wtrc file under a fresh temp dir.
func writeWTRC(t *testing.T, tr *trace.LLCTrace) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "t.wtrc")
	if err := trace.WriteFile(path, tr); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestMappedBitIdentityBuiltins decodes every built-in app's trace both
// eagerly and via the mapping and requires identical streams and stats —
// the invariant that lets the harness swap decode paths freely.
func TestMappedBitIdentityBuiltins(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite comparison is not short")
	}
	for _, spec := range workloads.Specs() {
		w := workloads.Build(spec, 0.002)
		tr := trace.FilterPrivate(w.Stream(1))
		path := writeWTRC(t, tr)
		eager, err := trace.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: ReadFile: %v", spec.Name, err)
		}
		mapped, err := trace.OpenMapped(path)
		if err != nil {
			t.Fatalf("%s: OpenMapped: %v", spec.Name, err)
		}
		sameTrace(t, spec.Name+" eager", tr, eager)
		sameTrace(t, spec.Name+" mapped", tr, mapped)
		if mapped.DemandAccesses() != tr.DemandAccesses() || mapped.LLCAPKI() != tr.LLCAPKI() {
			t.Fatalf("%s: mapped derived stats diverge", spec.Name)
		}
		if err := mapped.Close(); err != nil {
			t.Fatalf("%s: Close: %v", spec.Name, err)
		}
	}
}

// TestMappedFallbackBitIdentity forces the io fallback (no mmap) and
// requires identical behaviour from the same API.
func TestMappedFallbackBitIdentity(t *testing.T) {
	trace.SetMmapDisabledForTest(true)
	defer trace.SetMmapDisabledForTest(false)
	w := workloads.Build(mustSpec(t, "delaunay"), 0.01)
	tr := trace.FilterPrivate(w.Stream(1))
	path := writeWTRC(t, tr)
	mapped, err := trace.OpenMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.Close()
	if mapped.Mapped() {
		t.Fatal("fallback path reports a real mapping")
	}
	sameTrace(t, "fallback", tr, mapped)
	eager, err := trace.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sameTrace(t, "fallback ReadFile", tr, eager)
}

// TestMappedIsMapped asserts the real-mmap path engages on this
// platform (unix CI): the zero-copy claim depends on it.
func TestMappedIsMapped(t *testing.T) {
	tr := &trace.LLCTrace{}
	tr.Append(trace.LLCAccess{Line: 1, Gap: 1})
	mapped, err := trace.OpenMapped(writeWTRC(t, tr))
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.Close()
	if !mapped.Mapped() {
		t.Skip("mmap unavailable on this platform")
	}
}

// TestMappedCursorReset rewinds a mapped cursor mid-stream and after
// exhaustion (the simulator's warmup and Loop rewinds) and requires the
// replay to match a fresh cursor exactly.
func TestMappedCursorReset(t *testing.T) {
	w := workloads.Build(mustSpec(t, "delaunay"), 0.005)
	tr := trace.FilterPrivate(w.Stream(1))
	mapped, err := trace.OpenMapped(writeWTRC(t, tr))
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.Close()

	cur := mapped.NewCursor()
	for i := 0; i < mapped.NumAccesses()/3; i++ {
		cur.Next() // partial pass (warmup abandoned mid-way)
	}
	cur.Reset()
	ref := mapped.NewCursor()
	for i := 0; ; i++ {
		a, ok := cur.Next()
		b, okb := ref.Next()
		if ok != okb || a != b {
			t.Fatalf("post-Reset access %d: %+v/%v != %+v/%v", i, a, ok, b, okb)
		}
		if !ok {
			break
		}
	}
	// Full pass then Reset (the Loop rewind): must replay identically.
	cur.Reset()
	n := 0
	for {
		if _, ok := cur.Next(); !ok {
			break
		}
		n++
	}
	if n != mapped.NumAccesses() {
		t.Fatalf("second full pass saw %d accesses, want %d", n, mapped.NumAccesses())
	}
	if err := cur.Err(); err != nil {
		t.Fatalf("clean replay left cursor error %v", err)
	}
}

// TestMappedConcurrentCursors runs many cursors over one mapping at
// once; each must see the full, identical stream (cursors share bytes
// but no mutable state).
func TestMappedConcurrentCursors(t *testing.T) {
	w := workloads.Build(mustSpec(t, "delaunay"), 0.005)
	tr := trace.FilterPrivate(w.Stream(1))
	mapped, err := trace.OpenMapped(writeWTRC(t, tr))
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.Close()
	want := uint64(0)
	for cur := tr.NewCursor(); ; {
		a, ok := cur.Next()
		if !ok {
			break
		}
		want += uint64(a.Line) + uint64(a.Gap)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sum, n := uint64(0), 0
			for cur := mapped.NewCursor(); ; {
				a, ok := cur.Next()
				if !ok {
					break
				}
				sum += uint64(a.Line) + uint64(a.Gap)
				n++
			}
			if n != mapped.NumAccesses() || sum != want {
				t.Errorf("concurrent cursor saw %d accesses (sum %d), want %d (sum %d)",
					n, sum, mapped.NumAccesses(), want)
			}
		}()
	}
	wg.Wait()
}

// TestMappedUseAfterClose requires clean errors — never a fault — from
// cursors used after the mapping is released, whichever side of Close
// they were created on.
func TestMappedUseAfterClose(t *testing.T) {
	tr := &trace.LLCTrace{}
	for i := 0; i < 100; i++ {
		tr.Append(trace.LLCAccess{Line: addr.Line(i), Gap: 1})
	}
	mapped, err := trace.OpenMapped(writeWTRC(t, tr))
	if err != nil {
		t.Fatal(err)
	}
	before := mapped.NewCursor()
	if _, ok := before.Next(); !ok {
		t.Fatal("cursor dead before Close")
	}
	if err := mapped.Close(); err != nil {
		t.Fatal(err)
	}
	if err := mapped.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, ok := before.Next(); ok {
		t.Fatal("Next succeeded after Close")
	}
	if err := before.Err(); !errors.Is(err, trace.ErrClosed) {
		t.Fatalf("pre-Close cursor error = %v, want ErrClosed", err)
	}
	after := mapped.NewCursor()
	if _, ok := after.Next(); ok {
		t.Fatal("post-Close cursor returned an access")
	}
	if err := after.Err(); !errors.Is(err, trace.ErrClosed) {
		t.Fatalf("post-Close cursor error = %v, want ErrClosed", err)
	}
	// Reset does not resurrect a closed mapping.
	before.Reset()
	if _, ok := before.Next(); ok {
		t.Fatal("Reset revived a closed cursor")
	}
}

// TestMappedErrorParity truncates and corrupts a file at every region
// and requires OpenMapped to fail exactly when the streaming reader
// does, with the same error class in the message.
func TestMappedErrorParity(t *testing.T) {
	data := encodeOne(t)
	dir := t.TempDir()
	write := func(b []byte) string {
		path := filepath.Join(dir, "x.wtrc")
		if err := os.WriteFile(path, b, 0o666); err != nil {
			t.Fatal(err)
		}
		return path
	}
	classOf := trace.ErrClass
	cuts := []int{0, 1, 3, 4, 7, 8, 20, 79, 80, len(data) / 4, len(data) / 2, len(data) - 5, len(data) - 3, len(data) - 1}
	for _, cut := range cuts {
		path := write(data[:cut])
		ref := &trace.LLCTrace{}
		_, refErr := ref.ReadFrom(bytes.NewReader(data[:cut]))
		_, mapErr := trace.OpenMapped(path)
		if refErr == nil || mapErr == nil {
			t.Fatalf("cut %d: reader err %v, mapped err %v (both must fail)", cut, refErr, mapErr)
		}
		if classOf(refErr) != classOf(mapErr) {
			t.Fatalf("cut %d: reader %q vs mapped %q", cut, refErr, mapErr)
		}
	}
	for _, pos := range []int{0, 4, 8, 16, 40, 80, len(data) / 2, len(data) - 2} {
		bad := bytes.Clone(data)
		bad[pos] ^= 0x5a
		path := write(bad)
		ref := &trace.LLCTrace{}
		_, refErr := ref.ReadFrom(bytes.NewReader(bad))
		_, mapErr := trace.OpenMapped(path)
		if refErr == nil || mapErr == nil {
			t.Fatalf("flip at %d: reader err %v, mapped err %v (both must fail)", pos, refErr, mapErr)
		}
		if classOf(refErr) != classOf(mapErr) {
			t.Fatalf("flip at %d: reader %q vs mapped %q", pos, refErr, mapErr)
		}
	}
}

// TestMappedMissingFile errors cleanly on both paths.
func TestMappedMissingFile(t *testing.T) {
	if _, err := trace.OpenMapped(filepath.Join(t.TempDir(), "nope.wtrc")); err == nil {
		t.Fatal("missing file must error")
	}
}

// TestMappedEmptyTrace round-trips a zero-access trace (header-only
// file) through the mapped path.
func TestMappedEmptyTrace(t *testing.T) {
	mapped, err := trace.OpenMapped(writeWTRC(t, &trace.LLCTrace{}))
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.Close()
	if mapped.NumAccesses() != 0 {
		t.Fatalf("empty trace has %d accesses", mapped.NumAccesses())
	}
	if _, ok := mapped.NewCursor().Next(); ok {
		t.Fatal("empty trace yielded an access")
	}
}

// TestWriteFileMappedByteIdentical writes a mapped trace back out: its
// columns already are wire bytes, so the copy must equal the original
// file byte for byte. A closed trace refuses to write.
func TestWriteFileMappedByteIdentical(t *testing.T) {
	w := workloads.Build(mustSpec(t, "delaunay"), 0.005)
	path := writeWTRC(t, trace.FilterPrivate(w.Stream(1)))
	mapped, err := trace.OpenMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.Close()
	path2 := filepath.Join(t.TempDir(), "copy.wtrc")
	if err := trace.WriteFile(path2, mapped); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("rewritten mapped trace differs from the original (%d vs %d bytes)", len(got), len(want))
	}
	mapped.Close()
	if err := trace.WriteFile(path2, mapped); !errors.Is(err, trace.ErrClosed) {
		t.Fatalf("WriteFile of a closed trace = %v, want ErrClosed", err)
	}
}
