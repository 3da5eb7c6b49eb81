package store

import (
	"bufio"
	"io"

	"ksp/internal/mmapfile"
)

// posReader counts the bytes delivered to the decoding layers above it.
// It sits directly under the crcReader — above any buffering — so its
// position always equals the absolute file offset of the next undecoded
// byte, which is how the disk loader learns where the on-disk sections
// begin.
type posReader struct {
	r   *bufio.Reader
	sec *io.SectionReader // what r buffers
	n   int64
}

func (p *posReader) Read(b []byte) (int, error) {
	n, err := p.r.Read(b)
	p.n += int64(n)
	return n, err
}

// skip moves the stream n bytes ahead without reading them: what r has
// buffered is dropped, and the file offset below it moves past the rest.
func (p *posReader) skip(n int64) error {
	k := min(n, int64(p.r.Buffered()))
	if _, err := p.r.Discard(int(k)); err != nil {
		return err
	}
	if _, err := p.sec.Seek(n-k, io.SeekCurrent); err != nil {
		return err
	}
	p.n += n
	return nil
}

// OpenDisk restores a snapshot in disk-resident mode: the graph
// structure (adjacency, URIs, coordinates, vocabulary) is materialized
// exactly as Read would, but the per-vertex documents stay on disk and
// are decoded from the snapshot file on every read, through a read-only
// memory mapping when useMmap is set and the platform maps files, else
// through positioned reads. Mapped, the α-radius inverted files of a
// version 3 snapshot are served in place from the mapping too; otherwise
// (pread mode, or an older format) they are read onto the heap, as Read
// does. The whole file still streams through the CRC layer once, and the
// α files are checked as Read checks them, so integrity checking is as
// strong as Read's.
//
// The returned Snapshot owns the open file; call Close when done (after
// the Graph and the α indexes are no longer in use).
func OpenDisk(path string, useMmap bool) (*Snapshot, error) {
	src, err := mmapfile.OpenMode(path, useMmap)
	if err != nil {
		return nil, err
	}
	base := io.NewSectionReader(src, 0, src.Size())
	pos := &posReader{r: bufio.NewReaderSize(base, 1<<20), sec: base}
	cr := &crcReader{r: pos, on: true}
	s, err := readSnapshot(newSectionReader(cr), cr, &diskLoad{src: src, pos: pos})
	if err != nil {
		//ksplint:ignore droppederr -- error-path cleanup; the load error already wins
		src.Close()
		return nil, err
	}
	return s, nil
}

// DiskResident reports whether this snapshot serves documents from the
// snapshot file (OpenDisk) rather than from memory.
func (s *Snapshot) DiskResident() bool { return s.src != nil }

// Mapped reports whether a disk-resident snapshot is served through a
// memory mapping rather than pread calls.
func (s *Snapshot) Mapped() bool { return s.src != nil && s.src.Mapped() }

// AlphaMapped reports whether the α files are served from the mapping of
// a disk-resident snapshot rather than from the heap.
func (s *Snapshot) AlphaMapped() bool { return s.alphaMapped && s.src != nil }

// Close releases the backing file of a disk-resident snapshot. After
// Close the Graph's documents and the α files — views of the mapping when
// the snapshot is mapped — must not be used. No-op for in-memory
// snapshots.
func (s *Snapshot) Close() error {
	if s.src == nil {
		return nil
	}
	src := s.src
	s.src = nil
	return src.Close()
}
