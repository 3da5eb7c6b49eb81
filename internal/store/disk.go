package store

import (
	"bufio"
	"hash/crc32"
	"io"

	"ksp/internal/mmapfile"
)

// posReader counts the bytes delivered to the decoding layers above it.
// It sits directly under the crcReader — above any buffering — so its
// position always equals the absolute file offset of the next undecoded
// byte, which is how the disk loader learns where the on-disk sections
// begin.
type posReader struct {
	r io.Reader
	n int64
}

func (p *posReader) Read(b []byte) (int, error) {
	n, err := p.r.Read(b)
	p.n += int64(n)
	return n, err
}

// OpenDisk restores a snapshot in disk-resident mode: the graph
// structure (adjacency, URIs, coordinates, vocabulary) is materialized
// exactly as Read would, but the two payloads that dominate the file —
// per-vertex documents and the α-radius posting lists — stay on disk
// and are decoded from the snapshot file on every read, optionally
// through a read-only memory mapping. The whole file still streams
// through the CRC layer once, so integrity checking is as strong as
// Read's.
//
// The returned Snapshot owns the open file; call Close when done (after
// the Graph and the α indexes are no longer in use).
func OpenDisk(path string, useMmap bool) (*Snapshot, error) {
	src, err := mmapfile.OpenMode(path, useMmap)
	if err != nil {
		return nil, err
	}
	base := io.NewSectionReader(src, 0, src.Size())
	br := bufio.NewReaderSize(base, 1<<20)
	pos := &posReader{r: br}
	cr := &crcReader{r: pos, crc: crc32.NewIEEE(), on: true}
	s, err := readSnapshot(newSectionReader(cr), cr, &diskLoad{src: src, pos: pos})
	if err != nil {
		//ksplint:ignore droppederr -- error-path cleanup; the load error already wins
		src.Close()
		return nil, err
	}
	return s, nil
}

// DiskResident reports whether this snapshot serves documents and α
// postings from the snapshot file (OpenDisk) rather than from memory.
func (s *Snapshot) DiskResident() bool { return s.src != nil }

// Mapped reports whether a disk-resident snapshot is served through a
// memory mapping rather than pread calls.
func (s *Snapshot) Mapped() bool { return s.src != nil && s.src.Mapped() }

// Close releases the backing file of a disk-resident snapshot. After
// Close the Graph's documents and the α indexes must not be used. No-op
// for in-memory snapshots.
func (s *Snapshot) Close() error {
	if s.src == nil {
		return nil
	}
	src := s.src
	s.src = nil
	return src.Close()
}
