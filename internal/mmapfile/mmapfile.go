// Package mmapfile serves read-only files either through a memory
// mapping (page-cache-backed, zero-copy Range) or through plain pread
// calls. Callers pick the mode at open time; on platforms without mmap
// support the mapped mode degrades to pread transparently, so the two
// modes differ only in how bytes reach the caller, never in what bytes.
//
// The mapped representation is what lets a snapshot larger than RAM
// serve queries: the kernel pages the graph's arrays and the α-radius
// inverted files in on demand and evicts them under pressure. A mapped
// snapshot is read in place, as views of the mapping, so none of those
// bytes land on the Go heap.
package mmapfile

import (
	"fmt"
	"io"
	"os"
)

// File is a read-only file handle with an optional memory mapping.
// All methods are safe for concurrent use: the mapping is immutable
// after Open, and the pread path uses os.File.ReadAt.
type File struct {
	f    *os.File
	size int64
	data []byte // non-nil iff the file is memory-mapped
}

// Open opens path for reading and memory-maps it when the platform
// supports mapping; otherwise the file serves through pread. Empty
// files are never mapped (zero-length mappings are invalid).
func Open(path string) (*File, error) { return OpenMode(path, true) }

// OpenPread opens path for plain pread serving, never mapping it.
func OpenPread(path string) (*File, error) { return OpenMode(path, false) }

// OpenMode opens path, mapping it when useMmap is set and the platform
// allows. A failed map attempt is not an error: the file falls back to
// pread, so callers can request mapping unconditionally.
func OpenMode(path string, useMmap bool) (*File, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		//ksplint:ignore droppederr -- error-path cleanup; the Stat error already wins
		f.Close()
		return nil, err
	}
	m := &File{f: f, size: st.Size()}
	if useMmap && m.size > 0 {
		if data, err := mmap(f, m.size); err == nil {
			m.data = data
		}
	}
	return m, nil
}

// Mapped reports whether the file is served through a memory mapping.
func (m *File) Mapped() bool { return m.data != nil }

// Size returns the file size observed at open time.
func (m *File) Size() int64 { return m.size }

// ReadAt implements io.ReaderAt over either representation.
func (m *File) ReadAt(p []byte, off int64) (int, error) {
	if m.data != nil {
		if off < 0 || off > m.size {
			return 0, fmt.Errorf("mmapfile: read at %d outside [0,%d]", off, m.size)
		}
		n := copy(p, m.data[off:])
		if n < len(p) {
			return n, io.EOF
		}
		return n, nil
	}
	return m.f.ReadAt(p, off)
}

// Range returns n bytes starting at off. In mapped mode the returned
// slice aliases the mapping (zero-copy; valid until Close, read-only);
// in pread mode it is freshly allocated. Callers that retain the bytes
// past the file's lifetime must copy.
func (m *File) Range(off, n int64) ([]byte, error) {
	if off < 0 || n < 0 || off+n > m.size {
		return nil, fmt.Errorf("mmapfile: range [%d,%d) outside [0,%d]", off, off+n, m.size)
	}
	if m.data != nil {
		return m.data[off : off+n : off+n], nil
	}
	buf := make([]byte, n)
	if _, err := m.f.ReadAt(buf, off); err != nil {
		return nil, err
	}
	return buf, nil
}

// Close unmaps (when mapped) and closes the file. Slices returned by
// Range in mapped mode are invalid afterwards.
func (m *File) Close() error {
	var unmapErr error
	if m.data != nil {
		unmapErr = munmap(m.data)
		m.data = nil
	}
	closeErr := m.f.Close()
	if unmapErr != nil {
		return unmapErr
	}
	return closeErr
}
