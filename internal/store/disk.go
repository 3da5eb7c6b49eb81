package store

import (
	"ksp/internal/mmapfile"
	"ksp/internal/view"
)

// OpenDisk restores the snapshot at path. With useMmap set, on a
// platform that maps files, the file is mapped read-only and a version 4
// snapshot is served in place: the Graph's arrays — documents, adjacency,
// URIs, vocabulary, places — and the α files are views of the mapping,
// so the kernel pages them in on demand and none of them lands on the
// heap. Otherwise the file is read into one heap buffer, as Read does,
// which the Graph and the α files view. Snapshots of versions 1 to 3 are
// decoded onto the heap in either mode. Every section's trailer is
// verified and every open-time check runs in every mode, so OpenDisk
// refuses exactly what Read refuses.
//
// The returned Snapshot owns the mapping; call Close when done (after the
// Graph and the α index are no longer in use). Close is a no-op for a
// snapshot on the heap.
func OpenDisk(path string, useMmap bool) (*Snapshot, error) {
	src, err := mmapfile.OpenMode(path, useMmap)
	if err != nil {
		return nil, err
	}
	if !src.Mapped() {
		data := view.Alloc(int(src.Size()))
		_, err := src.ReadAt(data, 0)
		if cerr := src.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, err
		}
		s, _, err := decode(data)
		return s, err
	}
	data, err := src.Range(0, src.Size())
	var s *Snapshot
	views := false
	if err == nil {
		s, views, err = decode(data)
	}
	if err != nil || !views {
		// Nothing views the mapping: a load error, or an older format
		// decoded onto the heap.
		if cerr := src.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, err
		}
		return s, nil
	}
	s.src = src
	return s, nil
}

// Mapped reports whether the snapshot's Graph and α files are views of
// a memory mapping rather than of the heap.
func (s *Snapshot) Mapped() bool { return s.src != nil }

// AlphaMapped reports whether the α files are views of a memory mapping.
func (s *Snapshot) AlphaMapped() bool { return s.src != nil && s.AlphaRadius > 0 }

// Close releases the mapping of a mapped snapshot. After Close the Graph
// and the α files, views of the mapping, must not be used. No-op for a
// snapshot on the heap.
func (s *Snapshot) Close() error {
	if s.src == nil {
		return nil
	}
	src := s.src
	s.src = nil
	return src.Close()
}
