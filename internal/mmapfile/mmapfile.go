// Package mmapfile maps read-only files into memory: page-cache-backed,
// with a zero-copy Range. Open maps the file or fails; a caller that can
// do without a mapping (the snapshot store reads the file onto the heap
// instead) decides what to do when it fails.
//
// The mapping is what lets a snapshot larger than RAM serve queries: the
// kernel pages the graph's arrays, the indexes and the α-radius inverted
// files in on demand and evicts them under pressure. A mapped snapshot is
// read in place, as views of the mapping, so none of those bytes land on
// the Go heap.
package mmapfile

import (
	"errors"
	"fmt"
	"os"
)

// File is a read-only memory-mapped file. All methods are safe for
// concurrent use: the mapping is immutable after Open.
type File struct {
	f    *os.File
	data []byte
}

// Open opens path and maps it read-only. It fails where the platform
// cannot map files, and for an empty file (a zero-length mapping is
// invalid).
func Open(path string) (*File, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err == nil && st.Size() == 0 {
		err = fmt.Errorf("mmapfile: %s is empty", path)
	}
	var data []byte
	if err == nil {
		data, err = mmap(f, st.Size())
	}
	if err != nil {
		return nil, errors.Join(err, f.Close())
	}
	return &File{f: f, data: data}, nil
}

// Size returns the file size observed at open time.
func (m *File) Size() int64 { return int64(len(m.data)) }

// Range returns n bytes starting at off as a view of the mapping:
// zero-copy, read-only and valid until Close. Callers that retain the
// bytes past the file's lifetime must copy.
func (m *File) Range(off, n int64) ([]byte, error) {
	if off < 0 || n < 0 || off+n > m.Size() {
		return nil, fmt.Errorf("mmapfile: range [%d,%d) outside [0,%d]", off, off+n, m.Size())
	}
	return m.data[off : off+n : off+n], nil
}

// Close unmaps and closes the file. Slices returned by Range are invalid
// afterwards.
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
