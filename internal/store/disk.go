package store

import (
	"errors"
	"io"
	"os"

	"ksp/internal/mmapfile"
	"ksp/internal/view"
)

// OpenDisk restores the snapshot at path. With mapped set, on a platform
// that maps files, the file is mapped read-only and served in place: the
// Graph's arrays — documents, adjacency, URIs, vocabulary, places — the
// R-tree, the reachability labels and the α files are views of the
// mapping, so the kernel pages them in on demand and none of them lands
// on the heap. Otherwise, or where the file cannot be mapped, the file is
// read into one heap buffer of its size, as Read does, which the same
// structures view. Every section's trailer is verified and every
// open-time check runs either way, so OpenDisk refuses exactly what Read
// refuses.
//
// The returned Snapshot owns the mapping; call Close when done (after the
// Graph and the indexes are no longer in use). Close is a no-op for a
// snapshot on the heap.
func OpenDisk(path string, mapped bool) (*Snapshot, error) {
	if mapped {
		if src, err := mmapfile.Open(path); err == nil {
			data, err := src.Range(0, src.Size())
			var s *Snapshot
			if err == nil {
				s, err = decode(data)
			}
			if err != nil {
				return nil, errors.Join(err, src.Close())
			}
			s.src = src
			return s, nil
		}
	}
	data, err := readAll(path)
	if err != nil {
		return nil, err
	}
	return decode(data)
}

// readAll reads the file at path into one aligned heap buffer of the
// file's size.
func readAll(path string) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	var data []byte
	if err == nil {
		data = view.Alloc(int(st.Size()))
		_, err = io.ReadFull(f, data)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return data, err
}

// Mapped reports whether the snapshot's Graph, indexes and α files are
// views of a memory mapping rather than of the heap.
func (s *Snapshot) Mapped() bool { return s.src != nil }

// Close releases the mapping of a mapped snapshot. After Close the Graph,
// the indexes and the α files, views of the mapping, must not be used.
// No-op for a snapshot on the heap.
func (s *Snapshot) Close() error {
	if s.src == nil {
		return nil
	}
	src := s.src
	s.src = nil
	return src.Close()
}
