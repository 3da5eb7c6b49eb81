package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"ksp/internal/alpha"
	"ksp/internal/geo"
	"ksp/internal/invindex"
	"ksp/internal/rdf"
	"ksp/internal/text"
)

// readLegacy decodes a snapshot of format version 1, 2 or 3 — a stream
// of little-endian words whose graph sections are rebuilt through an
// rdf.Builder — onto the heap. Version 1 carries no CRC trailers;
// versions 1 and 2 hold the α files as invindex encodings, packed into
// Files here, and version 3 as their images, copied off the stream.
func readLegacy(r io.Reader) (*Snapshot, error) {
	cr := &crcReader{r: r, on: true}
	h := &sectionReader{r: cr}
	if h.u32() != snapMagic {
		if h.err != nil {
			return nil, h.end("header")
		}
		return nil, errors.New("store: bad magic")
	}
	version := h.u32()
	// Version 1 predates the trailers; checking switches off entirely.
	cr.on = version >= 2
	n := int(h.u32())
	flags := h.u32()
	if err := h.end("header"); err != nil {
		return nil, err
	}

	b := rdf.NewBuilder()
	b.Analyzer = analyzerOf(flags)

	// Counts are untrusted until their section's CRC verifies (and never
	// trusted in v1 files), so slices grow capped-incrementally: a
	// corrupt count runs out of stream bytes long before it exhausts
	// memory.
	vocabLen := int(h.u32())
	terms := make([]uint32, 0, capHint(vocabLen))
	for t := 0; t < vocabLen && h.err == nil; t++ {
		terms = append(terms, b.Vocab.ID(h.str()))
	}
	if err := h.end("vocabulary"); err != nil {
		return nil, err
	}

	ids := make([]uint32, 0, capHint(n))
	for v := 0; v < n && h.err == nil; v++ {
		ids = append(ids, b.AddBareVertex(h.str()))
	}
	if err := h.end("uris"); err != nil {
		return nil, err
	}

	numPreds := int(h.u32())
	preds := make([]string, 0, capHint(numPreds))
	for i := 0; i < numPreds && h.err == nil; i++ {
		preds = append(preds, h.str())
	}
	h.u32() // edge count (informational)
	for v := 0; v < n && h.err == nil; v++ {
		deg := int(h.u32())
		for i := 0; i < deg && h.err == nil; i++ {
			o := h.u32()
			p := h.u32()
			if h.err != nil {
				break
			}
			if int(o) >= n || int(p) >= numPreds {
				return nil, fmt.Errorf("%w: adjacency references out-of-range vertex or predicate", ErrCorrupt)
			}
			b.AddEdge(ids[v], ids[o], preds[p])
		}
	}
	if err := h.end("adjacency"); err != nil {
		return nil, err
	}

	for v := 0; v < n && h.err == nil; v++ {
		dl := int(h.u32())
		for i := 0; i < dl && h.err == nil; i++ {
			t := h.u32()
			if h.err != nil {
				break
			}
			if int(t) >= vocabLen {
				return nil, fmt.Errorf("%w: document references out-of-range term", ErrCorrupt)
			}
			b.AddTermID(ids[v], terms[t])
		}
	}
	if err := h.end("documents"); err != nil {
		return nil, err
	}

	numPlaces := int(h.u32())
	for i := 0; i < numPlaces && h.err == nil; i++ {
		p := h.u32()
		x := h.f64()
		y := h.f64()
		if h.err != nil {
			break
		}
		if int(p) >= n {
			return nil, fmt.Errorf("%w: place references out-of-range vertex", ErrCorrupt)
		}
		loc := geo.Point{X: x, Y: y}
		if !loc.Finite() {
			return nil, fmt.Errorf("%w: place at %v", ErrCorrupt, loc)
		}
		b.SetLocation(ids[p], loc)
	}
	if err := h.end("places"); err != nil {
		return nil, err
	}

	s := &Snapshot{}
	s.AlphaRadius = int(h.u32())
	s.Dir = rdf.Direction(h.u32())
	if err := h.end("alpha metadata"); err != nil {
		return nil, err
	}
	if err := alpha.CheckRadius(s.AlphaRadius); err != nil {
		// A radius whose distances cannot fit their byte: written by a
		// build that wrapped them, or not written by Save at all.
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	s.Graph = b.Build()
	if s.AlphaRadius > 0 {
		places, r := s.Graph.Places(), s.AlphaRadius
		var err error
		if version < 3 {
			s.AlphaPlace, err = readEncoded(cr, "α place index", func(ix invindex.Index) (*alpha.File, error) {
				return alpha.PackPlaces(ix, r, places)
			})
			if err == nil {
				s.AlphaNode, err = readEncoded(cr, "α node index", func(ix invindex.Index) (*alpha.File, error) {
					return alpha.PackNodes(ix, r)
				})
			}
		} else {
			s.AlphaPlace, s.AlphaNode, err = readAlphaImages(cr, r, places)
		}
		if err != nil {
			return nil, err
		}
	}
	return s, nil
}

// analyzerOf decodes the header's analyzer flags (bit 0: stopwords,
// bit 1: stemming): queries on the restored graph must normalize
// keywords as its documents were.
func analyzerOf(flags uint32) text.Analyzer {
	return text.Analyzer{RemoveStopwords: flags&1 != 0, Stemming: flags&2 != 0}
}

// readEncoded reads one α inverted file of format version 1 or 2, an
// invindex encoding, and its CRC trailer from cr, and packs its lists into
// a File once the trailer verifies.
func readEncoded(cr *crcReader, section string, pack func(invindex.Index) (*alpha.File, error)) (*alpha.File, error) {
	enc, err := invindex.ReadFrom(cr)
	if err != nil {
		return nil, alphaErr(section, err)
	}
	if err := cr.verify(section); err != nil {
		return nil, err
	}
	f, err := pack(enc)
	if err != nil {
		return nil, fmt.Errorf("%w: %s: %v", ErrCorrupt, section, err)
	}
	return f, nil
}

// readAlphaImages reads the two α sections of format version 3, the images
// of the place and the node file, and opens each once its trailer
// verifies.
func readAlphaImages(cr *crcReader, radius int, places []uint32) (place, node *alpha.File, err error) {
	img, err := readAlphaImage(cr, "α place index", func(head []byte) (int, error) { return alpha.PlaceImageLen(head, places) })
	if err != nil {
		return nil, nil, err
	}
	if place, err = alpha.OpenPlaces(img, radius, places); err != nil {
		return nil, nil, fmt.Errorf("%w: α place index: %v", ErrCorrupt, err)
	}
	if img, err = readAlphaImage(cr, "α node index", alpha.NodeImageLen); err != nil {
		return nil, nil, err
	}
	if node, err = alpha.OpenNodes(img, radius); err != nil {
		return nil, nil, fmt.Errorf("%w: α node index: %v", ErrCorrupt, err)
	}
	return place, node, nil
}

// readAlphaImage reads one α image, whose length size tells from its header,
// and its trailer.
func readAlphaImage(cr *crcReader, section string, size func(head []byte) (int, error)) ([]byte, error) {
	head, err := readAppend(cr, nil, alpha.HeaderLen)
	if err != nil {
		return nil, alphaErr(section, err)
	}
	n, err := size(head)
	if err != nil {
		return nil, fmt.Errorf("%w: %s: %v", ErrCorrupt, section, err)
	}
	img, err := readAppend(cr, head, int64(n-alpha.HeaderLen))
	if err != nil {
		return nil, alphaErr(section, err)
	}
	return img, cr.verify(section)
}

// readAppend appends n bytes of r to dst. The buffer doubles as the
// bytes arrive, up to the length asked for, so that a corrupt length runs
// out of stream long before it exhausts memory, and the result has no
// spare capacity.
func readAppend(r io.Reader, dst []byte, n int64) ([]byte, error) {
	want := int64(len(dst)) + n
	buf := dst
	for int64(len(buf)) < want {
		if len(buf) == cap(buf) {
			buf = append(make([]byte, 0, min(want, max(2*int64(cap(buf)), 1<<20))), buf...)
		}
		k, err := io.ReadFull(r, buf[len(buf):min(int64(cap(buf)), want)])
		buf = buf[:len(buf)+k]
		if err != nil {
			return nil, err
		}
	}
	return buf, nil
}

// alphaErr wraps an α-index decoding failure, folding stream truncation
// into ErrCorrupt like every other section.
func alphaErr(section string, err error) error {
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return fmt.Errorf("%w: truncated in %s", ErrCorrupt, section)
	}
	return fmt.Errorf("store: %s: %w", section, err)
}

// capHint bounds the initial capacity reserved for an untrusted element
// count.
func capHint(n int) int {
	const max = 1 << 16
	if n < 0 {
		return 0
	}
	if n > max {
		return max
	}
	return n
}

// crcReader sums the bytes read through it, and verify consumes a
// section's trailer (read raw, off the sum) and compares.
type crcReader struct {
	r   io.Reader
	crc uint32 // of the section so far
	on  bool
}

func (c *crcReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	if c.on {
		c.crc = crc32.Update(c.crc, crc32.IEEETable, p[:n])
	}
	return n, err
}

func (c *crcReader) verify(section string) error {
	if !c.on {
		return nil
	}
	sum := c.crc
	c.crc = 0
	var b [4]byte
	if _, err := io.ReadFull(c.r, b[:]); err != nil {
		return fmt.Errorf("%w: truncated at %s trailer", ErrCorrupt, section)
	}
	if stored := binary.LittleEndian.Uint32(b[:]); stored != sum {
		return fmt.Errorf("%w: %s crc mismatch (stored %08x, computed %08x)", ErrCorrupt, section, stored, sum)
	}
	return nil
}

type sectionReader struct {
	r   *crcReader
	err error
	buf [8]byte
}

// end closes a section: decode errors surface (truncation folded into
// ErrCorrupt), then the section's CRC trailer is verified.
func (h *sectionReader) end(section string) error {
	if h.err != nil {
		if errors.Is(h.err, io.EOF) || errors.Is(h.err, io.ErrUnexpectedEOF) {
			return fmt.Errorf("%w: truncated in %s", ErrCorrupt, section)
		}
		return h.err
	}
	return h.r.verify(section)
}

func (h *sectionReader) u32() uint32 {
	if h.err != nil {
		return 0
	}
	if _, h.err = io.ReadFull(h.r, h.buf[:4]); h.err != nil {
		return 0
	}
	return binary.LittleEndian.Uint32(h.buf[:4])
}

func (h *sectionReader) f64() float64 {
	if h.err != nil {
		return 0
	}
	if _, h.err = io.ReadFull(h.r, h.buf[:8]); h.err != nil {
		return 0
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(h.buf[:8]))
}

const maxStrLen = 1 << 20

func (h *sectionReader) str() string {
	n := h.u32()
	if h.err != nil {
		return ""
	}
	if n > maxStrLen {
		h.err = fmt.Errorf("%w: oversized string", ErrCorrupt)
		return ""
	}
	buf := make([]byte, n)
	if _, h.err = io.ReadFull(h.r, buf); h.err != nil {
		return ""
	}
	return string(buf)
}
