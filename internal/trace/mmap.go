// Memory-mapped .wtrc reading: OpenMapped serves a trace straight out
// of the page cache. The file is validated once at open (magic, version,
// header plausibility, column completeness, CRC), but the columns are
// never copied or pre-walked — cursors decode varints lazily out of the
// mapping, so opening a warm trace costs one checksum pass instead of a
// full decode, and N concurrent cursors share one resident copy.
//
// When mmap is unavailable (non-unix builds, empty files, filesystems
// that refuse to map) OpenMapped falls back to reading the file through
// ordinary io: same type, same semantics, heap-resident bytes.
package trace

import (
	"errors"
	"fmt"
	"os"
	"sync/atomic"
)

// ErrClosed is returned (via Cursor.Err, and by WriteTo) when a trace is
// used after Close released it.
var ErrClosed = errors.New("trace: trace is closed")

// errMmapUnavailable signals mapFile cannot serve this request; the
// caller falls back to plain reads.
var errMmapUnavailable = errors.New("trace: mmap unavailable")

// mmapDisabled force-disables mmap (tests exercise the fallback path).
var mmapDisabled atomic.Bool

// OpenMapped opens a .wtrc file for zero-copy reading: it maps the file
// read-only and parses it (header plausibility and CRC — one sequential
// pass, no decoding, no column copies). Corrupt or truncated files error
// here with the same messages ReadFile and ReadFrom produce; a varint
// that fails to decode surfaces later, through the replaying cursor's
// Err. When the file cannot be mapped its bytes are read into memory
// instead and served identically.
//
// Close releases the mapping; cursors created before or after Close
// observe it and fail cleanly with ErrClosed (they never touch unmapped
// memory after the closed flag is set). Close must not be called while
// a cursor is mid-Next on another goroutine.
func OpenMapped(path string) (*LLCTrace, error) {
	var data []byte
	var unmap func() error
	err := errMmapUnavailable
	if !mmapDisabled.Load() {
		data, unmap, err = mapFile(path)
	}
	if err != nil {
		if data, err = os.ReadFile(path); err != nil {
			return nil, fmt.Errorf("trace: %w", err)
		}
	}
	t, err := parseWTRC(data)
	if err != nil {
		if unmap != nil {
			_ = unmap()
		}
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	t.unmap = unmap
	return t, nil
}

// Close marks the trace closed and releases its mapping, if it has one.
// Idempotent. Cursors used after Close return no accesses and report
// ErrClosed via Err.
func (t *LLCTrace) Close() error {
	if t.closed.Swap(true) || t.unmap == nil {
		return nil
	}
	return t.unmap()
}

// Mapped reports whether the trace is backed by a real memory mapping
// (false for heap traces, including OpenMapped's io fallback).
func (t *LLCTrace) Mapped() bool { return t.unmap != nil }
