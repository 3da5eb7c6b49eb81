package store

import (
	"bufio"
	"encoding/binary"
	"hash/crc32"
	"io"
	"math"

	"ksp/internal/alpha"
	"ksp/internal/invindex"
	"ksp/internal/rdf"
)

// writeVersion writes s in the given format version. Version 5 is Write.
// Version 4 is the reference for the images written before the R-tree and
// the reachability labels were stored (writeV4). Versions 1 to 3 are the
// reference for the snapshots written before the graph sections were
// stored as their images: streams of words, each α file an invindex
// encoding (versions 1 and 2, writeEncoded) or its image (version 3).
func writeVersion(w io.Writer, s *Snapshot, version uint32) error {
	switch version {
	case snapVersion:
		return Write(w, s)
	case 4:
		return writeV4(w, s)
	case 3:
		return writeLegacy(w, s, 3, func(w io.Writer, f *alpha.File) error {
			_, err := w.Write(f.Image())
			return err
		})
	}
	return writeEncoded(w, s, version, s.AlphaPlace, s.AlphaNode)
}

// legacyLoc is where writeLegacy says place p is.
var legacyLoc = (*rdf.Graph).Loc

// writeV4 writes s in format version 4: Write's header up to the R-tree's
// counts, and its sections up to the α files, with neither the R-tree nor
// the reachability labels.
func writeV4(w io.Writer, s *Snapshot) error {
	g, a := s.Graph, s.Graph.Arrays()
	head := make([]uint32, hNodes)
	head[0], head[1] = snapMagic, 4
	head[hVertices] = uint32(g.NumVertices())
	if g.Analyzer().RemoveStopwords {
		head[hFlags] |= flagStopwords
	}
	if g.Analyzer().Stemming {
		head[hFlags] |= flagStemming
	}
	head[hTerms], head[hTermBytes] = uint32(a.Terms.Len()), uint32(len(a.Terms.Blob))
	head[hURIBytes] = uint32(len(a.URIs.Blob))
	head[hPreds], head[hPredBytes] = uint32(a.Preds.Len()), uint32(len(a.Preds.Blob))
	head[hEdges], head[hDocTerms] = uint32(len(a.OutEdges)), uint32(len(a.DocTerms))
	head[hPlaces] = uint32(len(a.Places))
	head[hAlphaRadius], head[hDir] = uint32(s.AlphaRadius), uint32(s.Dir)
	bw := bufio.NewWriter(w)
	iw := &imageWriter{w: bw}
	iw.u32s(head)
	iw.end()
	iw.table(a.Terms)
	iw.end()
	iw.table(a.URIs)
	iw.end()
	iw.array(a.Preds.Blob)
	iw.u32s(a.Preds.Off, a.OutOff, a.OutEdges, a.OutPreds, a.InOff, a.InEdges)
	iw.end()
	iw.u32s(a.DocOff, a.DocTerms)
	iw.end()
	iw.u32s(a.Places, a.PlaceOrd)
	writeArray(iw, a.Coords)
	iw.end()
	if s.AlphaRadius > 0 {
		iw.array(s.AlphaPlace.Image())
		iw.end()
		iw.array(s.AlphaNode.Image())
		iw.end()
	}
	if iw.err != nil {
		return iw.err
	}
	return bw.Flush()
}

// writeEncoded writes s in format version 1 or 2 with place and node, in
// whatever representation, encoded as its two α sections.
func writeEncoded(w io.Writer, s *Snapshot, version uint32, place, node invindex.Index) error {
	next := []invindex.Index{place, node}
	return writeLegacy(w, s, version, func(w io.Writer, _ *alpha.File) error {
		ix := next[0]
		next = next[1:]
		return invindex.Write(w, ix)
	})
}

// writeLegacy writes the sections of format version 1, 2 or 3, each α
// file through writeAlpha; versions below 2 carry no CRC trailers.
func writeLegacy(w io.Writer, s *Snapshot, version uint32, writeAlpha func(io.Writer, *alpha.File) error) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	cw := &crcWriter{w: bw, on: version >= 2}
	h := newSectionWriter(cw)
	end := func() {
		if h.err == nil {
			h.err = cw.trailer()
		}
	}

	// Header section.
	h.u32(snapMagic)
	h.u32(version)
	g := s.Graph
	n := g.NumVertices()
	h.u32(uint32(n))
	// Analyzer flags (bit 0: stopwords, bit 1: stemming) — queries on the
	// restored graph must normalize keywords identically.
	var flags uint32
	if g.Analyzer().RemoveStopwords {
		flags |= 1
	}
	if g.Analyzer().Stemming {
		flags |= 2
	}
	h.u32(flags)
	end()

	// Vocabulary.
	h.u32(uint32(g.Vocab.Len()))
	for t := 0; t < g.Vocab.Len(); t++ {
		h.str(g.Vocab.Term(uint32(t)))
	}
	end()

	// URIs.
	for v := 0; v < n; v++ {
		h.str(g.URI(uint32(v)))
	}
	end()

	// Predicate table + adjacency with labels.
	h.u32(uint32(g.NumPredNames()))
	for i := 0; i < g.NumPredNames(); i++ {
		h.str(g.PredName(uint32(i)))
	}
	h.u32(uint32(g.NumEdges()))
	for v := 0; v < n; v++ {
		out := g.Out(uint32(v))
		preds := g.OutPreds(uint32(v))
		h.u32(uint32(len(out)))
		for i, o := range out {
			h.u32(o)
			h.u32(preds[i])
		}
	}
	end()

	// Documents.
	for v := 0; v < n; v++ {
		doc := g.Doc(uint32(v))
		h.u32(uint32(len(doc)))
		for _, t := range doc {
			h.u32(t)
		}
	}
	end()

	// Places.
	places := g.Places()
	h.u32(uint32(len(places)))
	for _, p := range places {
		h.u32(p)
		loc := legacyLoc(g, p)
		h.f64(loc.X)
		h.f64(loc.Y)
	}
	end()

	// α index metadata.
	h.u32(uint32(s.AlphaRadius))
	h.u32(uint32(s.Dir))
	end()
	if h.err != nil {
		return h.err
	}
	if s.AlphaRadius > 0 {
		// The α files are written through cw, so the trailers cover their
		// bytes too.
		for _, f := range []*alpha.File{s.AlphaPlace, s.AlphaNode} {
			if err := writeAlpha(cw, f); err != nil {
				return err
			}
			if err := cw.trailer(); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// crcWriter sums every byte written through it; trailer emits the
// running CRC32 (the four trailer bytes themselves are not summed) and
// starts the next section.
type crcWriter struct {
	w   io.Writer
	crc uint32
	on  bool
}

func (c *crcWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	if c.on {
		c.crc = crc32.Update(c.crc, crc32.IEEETable, p[:n])
	}
	return n, err
}

func (c *crcWriter) trailer() error {
	if !c.on {
		return nil
	}
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], c.crc)
	c.crc = 0
	_, err := c.w.Write(b[:])
	return err
}

type sectionWriter struct {
	w   io.Writer
	err error
	buf [8]byte
}

func newSectionWriter(w io.Writer) *sectionWriter { return &sectionWriter{w: w} }

func (h *sectionWriter) u32(v uint32) {
	if h.err != nil {
		return
	}
	binary.LittleEndian.PutUint32(h.buf[:4], v)
	_, h.err = h.w.Write(h.buf[:4])
}

func (h *sectionWriter) f64(v float64) {
	if h.err != nil {
		return
	}
	binary.LittleEndian.PutUint64(h.buf[:8], math.Float64bits(v))
	_, h.err = h.w.Write(h.buf[:8])
}

func (h *sectionWriter) str(s string) {
	h.u32(uint32(len(s)))
	if h.err != nil {
		return
	}
	_, h.err = io.WriteString(h.w, s)
}
