// The .wtrc binary codec: a versioned record/replay format for filtered
// LLC traces. The on-disk layout is the in-memory columnar layout plus a
// fixed header and a CRC, so encoding writes the column buffers as they
// are and decoding subslices them out of the file image; see
// docs/trace-format.md for the byte-level reference.
package trace

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
)

// Magic identifies a .wtrc file.
const Magic = "WTRC"

// FormatVersion is the current .wtrc format version. Bump it on any
// layout change; readers reject versions they do not understand, and the
// harness folds it into trace-cache keys so stale cache entries are
// never picked up.
const FormatVersion = 1

// maxSaneAccesses and maxSaneBytes bound the sizes a reader will
// believe: a corrupt header must not provoke a multi-terabyte allocation
// before the CRC check has a chance to run.
const (
	maxSaneAccesses = 1 << 33
	maxSaneBytes    = 1 << 34
)

// header is the fixed-size portion after magic+version, little-endian.
type header struct {
	N           uint64
	Demand      uint64
	Instrs      uint64
	RawAccesses uint64
	L1Hits      uint64
	L2Hits      uint64
	BaseCycles  uint64
	LenDeltas   uint64
	LenGaps     uint64
}

// headerBytes is the fixed-size region after magic+version.
const headerBytes = 9 * 8

// fields lists the header's words in wire order.
func (h *header) fields() [9]*uint64 {
	return [9]*uint64{&h.N, &h.Demand, &h.Instrs, &h.RawAccesses, &h.L1Hits,
		&h.L2Hits, &h.BaseCycles, &h.LenDeltas, &h.LenGaps}
}

// decodeHeader decodes the fixed header region (headerBytes long).
func decodeHeader(hb []byte) header {
	var h header
	for i, f := range h.fields() {
		*f = binary.LittleEndian.Uint64(hb[8*i:])
	}
	return h
}

// sane bounds the sizes a reader will believe before indexing anything.
func (h header) sane() error {
	if h.N > maxSaneAccesses || h.Demand > h.N ||
		h.LenDeltas > maxSaneBytes || h.LenGaps > maxSaneBytes ||
		h.LenDeltas > 10*h.N || h.LenGaps > 10*h.N || (h.N > 0 && h.LenDeltas == 0) {
		return fmt.Errorf("trace: corrupt .wtrc header (n=%d demand=%d deltas=%d gaps=%d)",
			h.N, h.Demand, h.LenDeltas, h.LenGaps)
	}
	return nil
}

// WriteTo encodes the trace in .wtrc format: the magic, version and
// header, then the column buffers exactly as held, then a CRC over all
// of it. It implements io.WriterTo.
func (t *LLCTrace) WriteTo(w io.Writer) (int64, error) {
	if t.closed.Load() {
		return 0, ErrClosed
	}
	h := header{
		N:           uint64(t.n),
		Demand:      t.demand,
		Instrs:      t.Instrs,
		RawAccesses: t.RawAccesses,
		L1Hits:      t.L1Hits,
		L2Hits:      t.L2Hits,
		BaseCycles:  t.BaseCycles,
		LenDeltas:   uint64(len(t.deltas)),
		LenGaps:     uint64(len(t.gaps)),
	}
	head := make([]byte, 0, 8+headerBytes)
	head = append(head, Magic...)
	head = binary.LittleEndian.AppendUint32(head, FormatVersion)
	for _, f := range h.fields() {
		head = binary.LittleEndian.AppendUint64(head, *f)
	}
	crc := crc32.NewIEEE()
	var n int64
	for _, b := range [][]byte{head, t.deltas, t.gaps, t.write, t.wback} {
		crc.Write(b)
		k, err := w.Write(b)
		n += int64(k)
		if err != nil {
			return n, err
		}
	}
	// The CRC trailer covers everything above, magic included.
	k, err := w.Write(binary.LittleEndian.AppendUint32(nil, crc.Sum32()))
	return n + int64(k), err
}

// ReadFrom reads one .wtrc image from r and decodes it into t,
// replacing its contents. It implements io.ReaderFrom. Truncated,
// corrupt, or wrong-version input returns a descriptive error; it never
// panics and never half-populates t (contents are replaced only on
// success).
func (t *LLCTrace) ReadFrom(r io.Reader) (int64, error) {
	data, err := readImage(r)
	if err != nil {
		return int64(len(data)), fmt.Errorf("trace: %w", err)
	}
	nt, err := parseWTRC(data)
	if err == nil {
		err = nt.validate()
	}
	if err != nil {
		return int64(len(data)), err
	}
	t.Summary, t.n, t.demand, t.lastLine = nt.Summary, nt.n, nt.demand, nt.lastLine
	t.deltas, t.gaps, t.write, t.wback = nt.deltas, nt.gaps, nt.write, nt.wback
	return int64(len(data)), nil
}

// maxPrealloc bounds the buffer readImage sizes from a header alone.
const maxPrealloc = 1 << 24

// readImage reads the fixed prefix, then the rest of the image its
// header declares (nothing more when the header is unbelievable: the
// parse rejects it from the prefix alone). An image up to maxPrealloc
// is read into one buffer of the declared size; a larger one grows as
// its bytes arrive, so a corrupt header cannot force a huge allocation.
// Running out of input early is not an error here: the parse reports
// the truncation.
func readImage(r io.Reader) ([]byte, error) {
	data := make([]byte, 8+headerBytes)
	n, err := io.ReadFull(r, data)
	if err == nil {
		if h := decodeHeader(data[8:]); h.sane() == nil {
			size := uint64(n) + h.LenDeltas + h.LenGaps + 16*((h.N+63)/64) + 4
			if size > maxPrealloc {
				rest, err := io.ReadAll(io.LimitReader(r, int64(size)-int64(n)))
				return append(data, rest...), err
			}
			data = append(data, make([]byte, int(size)-n)...)
			var k int
			k, err = io.ReadFull(r, data[n:])
			n += k
		}
	}
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		err = nil
	}
	return data[:n], err
}

// parseWTRC checks a complete .wtrc byte image — magic, version, header
// plausibility, column completeness, CRC — and returns a trace whose
// columns are subslices of data. Every entry point (OpenMapped, ReadFile,
// ReadFrom) parses through it, so they all report the same failure for
// the same broken file. It never panics and never copies a column.
func parseWTRC(data []byte) (*LLCTrace, error) {
	if len(data) < 4 {
		return nil, fmt.Errorf("trace: not a .wtrc trace: %w", errShort(len(data)))
	}
	if string(data[:4]) != Magic {
		return nil, fmt.Errorf("trace: not a .wtrc trace (bad magic %q)", data[:4])
	}
	if len(data) < 8 {
		return nil, fmt.Errorf("trace: truncated header: %w", errShort(len(data)))
	}
	if v := binary.LittleEndian.Uint16(data[4:]); v != FormatVersion {
		return nil, fmt.Errorf("trace: unsupported .wtrc version %d (this build reads version %d)", v, FormatVersion)
	}
	if len(data) < 8+headerBytes {
		return nil, fmt.Errorf("trace: truncated header: %w", errShort(len(data)))
	}
	h := decodeHeader(data[8:])
	if err := h.sane(); err != nil {
		return nil, err
	}
	t := &LLCTrace{
		Summary: Summary{
			Instrs:      h.Instrs,
			RawAccesses: h.RawAccesses,
			L1Hits:      h.L1Hits,
			L2Hits:      h.L2Hits,
			BaseCycles:  h.BaseCycles,
		},
		n:      int(h.N),
		demand: h.Demand,
	}
	// Column completeness: report the first column the bytes run out in.
	// Columns are cut with full slice expressions, so an append to one
	// reallocates instead of writing into its neighbour (or into a
	// read-only mapping).
	pos := uint64(8 + headerBytes)
	words := (h.N + 63) / 64
	for _, col := range []struct {
		dst  *[]byte
		size uint64
		what string
	}{
		{&t.deltas, h.LenDeltas, "delta column"},
		{&t.gaps, h.LenGaps, "gap column"},
		{&t.write, 8 * words, "flag bitsets"},
		{&t.wback, 8 * words, "flag bitsets"},
	} {
		if uint64(len(data))-pos < col.size {
			return nil, fmt.Errorf("trace: truncated %s: %w", col.what, errShort(len(data)))
		}
		*col.dst = data[pos : pos+col.size : pos+col.size]
		pos += col.size
	}
	if uint64(len(data))-pos < 4 {
		return nil, fmt.Errorf("trace: truncated checksum: %w", errShort(len(data)))
	}
	want := crc32.ChecksumIEEE(data[:pos])
	if got := binary.LittleEndian.Uint32(data[pos:]); got != want {
		return nil, fmt.Errorf("trace: .wtrc checksum mismatch (file %08x, computed %08x): corrupt trace", got, want)
	}
	return t, nil
}

// errShort is the truncation cause for a byte image that ended early.
func errShort(n int) error {
	return fmt.Errorf("file is %d bytes: unexpected EOF", n)
}

// validate replays the parsed columns once with a cursor, checking that
// the varint streams hold exactly n well-formed records, and leaves the
// encoder state (lastLine) consistent so the trace could even be
// appended to.
func (t *LLCTrace) validate() error {
	c := cursor{t: t}
	var demand uint64
	for {
		a, ok := c.Next()
		if !ok {
			break
		}
		if !a.Writeback {
			demand++
		}
	}
	if c.err != nil {
		return c.err
	}
	if c.dpos != len(t.deltas) || c.gpos != len(t.gaps) || demand != t.demand {
		return fmt.Errorf("trace: corrupt .wtrc payload (column sizes disagree with header)")
	}
	t.lastLine = c.line
	return nil
}

// WriteFile atomically writes the trace to path in .wtrc format: the
// bytes land in a temp file in the same directory and are renamed into
// place, so concurrent readers (parallel sweep workers sharing a trace
// cache) never observe a partial file.
func WriteFile(path string, tr TraceReader) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, ".wtrc-tmp-*")
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	tmp := f.Name()
	if _, err := tr.WriteTo(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("trace: writing %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("trace: writing %s: %w", path, err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("trace: %w", err)
	}
	return nil
}

// ReadFile reads a .wtrc file onto the heap, parses it and walks every
// record: the result never touches the file again. Use OpenMapped to
// serve the columns straight out of the page cache instead.
func ReadFile(path string) (*LLCTrace, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	t, err := parseWTRC(data)
	if err == nil {
		err = t.validate()
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return t, nil
}
