package store

import (
	"io"

	"ksp/internal/alpha"
	"ksp/internal/invindex"
)

// writeVersion writes s in the given format version. Version 3 is Write.
// Versions 1 and 2 are the reference for the snapshots written before the
// α files were stored as their images: each α file is an invindex
// encoding (writeEncoded).
func writeVersion(w io.Writer, s *Snapshot, version uint32) error {
	if version == snapVersion {
		return Write(w, s)
	}
	return writeEncoded(w, s, version, s.AlphaPlace, s.AlphaNode)
}

// writeEncoded writes s in format version 1 or 2 with place and node, in
// whatever representation, encoded as its two α sections.
func writeEncoded(w io.Writer, s *Snapshot, version uint32, place, node invindex.Index) error {
	next := []invindex.Index{place, node}
	return write(w, s, version, func(w io.Writer, _ *alpha.File) error {
		ix := next[0]
		next = next[1:]
		return invindex.Write(w, ix)
	})
}
