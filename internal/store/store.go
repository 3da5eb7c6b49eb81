// Package store persists a fully indexed dataset to a single snapshot
// file and restores it without re-running preprocessing.
//
// Motivation straight from the paper's Table 5: α-radius word-neighbourhood
// construction dominates preprocessing by orders of magnitude (≈20 hours
// for DBpedia at full scale), so a production deployment must build once
// and reload. The snapshot holds the graph (CSR arrays, vocabulary, URIs,
// coordinates) and the two α-radius inverted files; cheap indexes (R-tree,
// document inverted index, reachability labels) are rebuilt on load —
// they cost milliseconds-to-seconds (Table 5 again) and rebuilding keeps
// the format small and the loader simple.
//
// Format version 2 appends a CRC32 (IEEE) trailer to every section, so
// a snapshot corrupted at rest (bit rot, torn write, truncation) fails
// loading with ErrCorrupt instead of silently building a wrong index.
// Version 3 stores each α file as its image (alpha.File): the bytes Read
// holds in memory and OpenDisk maps are the bytes the bounds read, with
// no decode, and alpha.OpenPlaces/OpenNodes check them once at open.
// Versions 1 (no trailers) and 2 still load: their α sections are invindex
// encodings, decoded and packed into the same Files on the heap.
//
// The α-radius node postings are keyed by R-tree node IDs, which is safe
// because the R-tree is rebuilt with deterministic STR bulk loading from
// the same places with the same fanout, yielding identical node IDs
// (verified by TestSnapshotAlphaNodeIDsStable).
package store

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"math"
	"os"

	"ksp/internal/alpha"
	"ksp/internal/geo"
	"ksp/internal/invindex"
	"ksp/internal/mmapfile"
	"ksp/internal/rdf"
	"ksp/internal/text"
)

const (
	snapMagic = 0x6B535053 // "kSPS"
	// snapVersion 3 stores the α files as their images; version 2 added
	// per-section CRC32 trailers. Files of versions 1 and 2 remain
	// loadable.
	snapVersion = 3
)

// ErrCorrupt marks a snapshot that failed integrity checking: a section
// CRC mismatch, a truncated stream, or structurally impossible data.
// Detect with errors.Is; the fix is re-generating the snapshot, not
// retrying the load.
var ErrCorrupt = errors.New("store: corrupt snapshot")

// Snapshot is the persisted state: the graph plus the expensive α-radius
// index (nil when the source engine had none).
type Snapshot struct {
	Graph *rdf.Graph
	// AlphaRadius and Dir describe the persisted α index; AlphaPlace /
	// AlphaNode are its two inverted files. AlphaRadius == 0 means no α
	// index was persisted. A snapshot opened disk-resident and mapped
	// serves both from the mapping; otherwise they are on the heap.
	AlphaRadius int
	Dir         rdf.Direction
	AlphaPlace  *alpha.File
	AlphaNode   *alpha.File

	// src backs a disk-resident snapshot (OpenDisk): the documents
	// section is served from it on demand, and when it is mapped so are
	// the α images. Nil for fully materialized snapshots. Owned by the
	// Snapshot; release with Close.
	src *mmapfile.File
	// alphaMapped is set when AlphaPlace and AlphaNode are views of
	// src's mapping.
	alphaMapped bool
}

// Write serializes the snapshot, each α file as the image it holds.
func Write(w io.Writer, s *Snapshot) error {
	return write(w, s, snapVersion, func(w io.Writer, f *alpha.File) error {
		_, err := w.Write(f.Image())
		return err
	})
}

// write writes the sections of the given format version, each α file
// through writeAlpha; versions below 2 carry no CRC trailers.
func write(w io.Writer, s *Snapshot, version uint32, writeAlpha func(io.Writer, *alpha.File) error) error {
	if s.DiskResident() {
		return errors.New("store: cannot serialize a disk-resident snapshot; load it with Read first")
	}
	bw := bufio.NewWriterSize(w, 1<<20)
	cw := &crcWriter{w: bw, crc: crc32.NewIEEE(), on: version >= 2}
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
		loc := g.Loc(p)
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

// Read restores a snapshot written by Write, fully materialized in
// memory.
func Read(r io.Reader) (*Snapshot, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	cr := &crcReader{r: br, on: true}
	return readSnapshot(newSectionReader(cr), cr, nil)
}

// diskLoad carries the state of a disk-resident open (OpenDisk): the
// backing file and a position tracker aligned with the decoded byte
// stream.
type diskLoad struct {
	src *mmapfile.File
	pos *posReader
}

// readSnapshot decodes the snapshot stream. With disk == nil every
// section is materialized (Read). In disk mode the stream is still
// consumed end to end — so every CRC trailer is verified and every
// structural check runs exactly as in Read — but the large payloads are
// not kept: the documents section contributes only per-vertex lengths
// (the terms are later served from disk via AttachExternalDocs), and from
// a mapped file the α images are only summed and then served from the
// mapping (readImage).
func readSnapshot(h *sectionReader, cr *crcReader, disk *diskLoad) (*Snapshot, error) {
	if h.u32() != snapMagic {
		if h.err != nil {
			return nil, h.end("header")
		}
		return nil, errors.New("store: bad magic")
	}
	version := h.u32()
	if h.err == nil && (version < 1 || version > snapVersion) {
		return nil, fmt.Errorf("store: unsupported version %d", version)
	}
	// Version 1 predates the trailers; checking switches off entirely.
	cr.on = version >= 2
	n := int(h.u32())
	flags := h.u32()
	if err := h.end("header"); err != nil {
		return nil, err
	}

	b := rdf.NewBuilder()
	b.Analyzer = text.Analyzer{
		RemoveStopwords: flags&1 != 0,
		Stemming:        flags&2 != 0,
	}

	// Counts are untrusted until their section's CRC verifies (and never
	// trusted in v1 files), so slices grow capped-incrementally: a
	// corrupt count runs out of stream bytes long before it exhausts
	// memory.
	vocabLen := int(h.u32())
	terms := make([]uint32, 0, capHint(vocabLen))
	for t := 0; t < vocabLen && h.err == nil; t++ {
		id := b.Vocab.ID(h.str())
		if disk != nil && id != uint32(len(terms)) {
			// Disk mode serves document term IDs raw from the file, which
			// is only sound when snapshot term slots and vocabulary IDs
			// coincide — true for every snapshot Write produces (it emits
			// each term once, in ID order).
			return nil, fmt.Errorf("%w: duplicate vocabulary term", ErrCorrupt)
		}
		terms = append(terms, id)
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

	var docBase int64
	var docLens []uint32
	if disk != nil {
		docBase = disk.pos.n
		docLens = make([]uint32, 0, capHint(n))
	}
	for v := 0; v < n && h.err == nil; v++ {
		dl := int(h.u32())
		if disk != nil {
			docLens = append(docLens, uint32(dl))
		}
		prev := -1
		for i := 0; i < dl && h.err == nil; i++ {
			t := h.u32()
			if h.err != nil {
				break
			}
			if int(t) >= vocabLen {
				return nil, fmt.Errorf("%w: document references out-of-range term", ErrCorrupt)
			}
			if disk == nil {
				b.AddTermID(ids[v], terms[t])
			} else if int(t) <= prev {
				// Disk mode serves a document as it lies in the file, so it
				// must already be what the builder makes of one — strictly
				// ascending, as Write emits it.
				return nil, fmt.Errorf("%w: document terms out of order", ErrCorrupt)
			}
			prev = int(t)
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
		b.SetLocation(ids[p], geo.Point{X: x, Y: y})
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
	if disk != nil {
		if err := s.Graph.AttachExternalDocs(docLens, disk.src, docBase); err != nil {
			return nil, err
		}
		s.src = disk.src
	}
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
			s.AlphaPlace, s.AlphaNode, err = readImages(cr, disk, r, places)
			s.alphaMapped = disk != nil && disk.src.Mapped()
		}
		if err != nil {
			return nil, err
		}
	}
	return s, nil
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

// readImages reads the two α sections of format version 3, the images
// of the place and the node file, and serves each once its trailer
// verifies and alpha has checked it: from the bytes read (Read, and
// OpenDisk in pread mode), or from the mapping of a mapped snapshot,
// whose bytes the stream only sums.
func readImages(cr *crcReader, disk *diskLoad, radius int, places []uint32) (place, node *alpha.File, err error) {
	img, err := readImage(cr, disk, "α place index", func(head []byte) (int, error) { return alpha.PlaceImageLen(head, places) })
	if err != nil {
		return nil, nil, err
	}
	if place, err = alpha.OpenPlaces(img, radius, places); err != nil {
		return nil, nil, fmt.Errorf("%w: α place index: %v", ErrCorrupt, err)
	}
	if img, err = readImage(cr, disk, "α node index", alpha.NodeImageLen); err != nil {
		return nil, nil, err
	}
	if node, err = alpha.OpenNodes(img, radius); err != nil {
		return nil, nil, fmt.Errorf("%w: α node index: %v", ErrCorrupt, err)
	}
	return place, node, nil
}

// readImage reads one α image, whose length size tells from its header,
// and its trailer, and returns the image: the bytes read or, from a
// mapped snapshot, a view of the mapping, which the CRC sums in place
// while the stream skips it.
func readImage(cr *crcReader, disk *diskLoad, section string, size func(head []byte) (int, error)) ([]byte, error) {
	var base int64
	if disk != nil {
		base = disk.pos.n
	}
	head, err := readAppend(cr, nil, alpha.HeaderLen)
	if err != nil {
		return nil, alphaErr(section, err)
	}
	n, err := size(head)
	if err != nil {
		return nil, fmt.Errorf("%w: %s: %v", ErrCorrupt, section, err)
	}
	rest := int64(n - alpha.HeaderLen)
	if disk == nil || !disk.src.Mapped() {
		img, err := readAppend(cr, head, rest)
		if err != nil {
			return nil, alphaErr(section, err)
		}
		return img, cr.verify(section)
	}
	img, err := disk.src.Range(base, int64(n))
	if err != nil {
		return nil, fmt.Errorf("%w: truncated in %s", ErrCorrupt, section)
	}
	cr.sum(img[alpha.HeaderLen:])
	if err := disk.pos.skip(rest); err != nil {
		return nil, err
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

// SaveFile writes the snapshot to path.
func SaveFile(path string, s *Snapshot) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := Write(f, s); err != nil {
		//ksplint:ignore droppederr -- error-path cleanup; the write error already wins
		f.Close()
		return err
	}
	return f.Close()
}

// LoadFile reads a snapshot from path.
func LoadFile(path string) (*Snapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	//ksplint:ignore droppederr -- file opened read-only; Close cannot lose data
	defer f.Close()
	return Read(f)
}

// AlphaIndex assembles an alpha.Index from the persisted inverted files.
func (s *Snapshot) AlphaIndex() *alpha.Index {
	if s.AlphaRadius == 0 {
		return nil
	}
	return &alpha.Index{
		Alpha:    s.AlphaRadius,
		Dir:      s.Dir,
		PlaceIdx: s.AlphaPlace,
		NodeIdx:  s.AlphaNode,
	}
}

// --- integrity wrappers ---

// crcWriter sums every byte written through it; trailer emits the
// running CRC32 (the four trailer bytes themselves are not summed) and
// starts the next section.
type crcWriter struct {
	w   io.Writer
	crc hash.Hash32
	on  bool
}

func (c *crcWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	if c.on && n > 0 {
		//ksplint:ignore droppederr -- hash.Hash.Write is documented to never return an error
		c.crc.Write(p[:n])
	}
	return n, err
}

func (c *crcWriter) trailer() error {
	if !c.on {
		return nil
	}
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], c.crc.Sum32())
	c.crc.Reset()
	_, err := c.w.Write(b[:])
	return err
}

// crcReader mirrors crcWriter: it sums bytes read through it, and
// verify consumes a trailer (read raw, off the sum) and compares.
type crcReader struct {
	r   io.Reader
	crc uint32 // of the section so far
	on  bool
}

func (c *crcReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.sum(p[:n])
	return n, err
}

// sum adds b to the running CRC: bytes read through c, or by other means.
func (c *crcReader) sum(b []byte) {
	if c.on {
		c.crc = crc32.Update(c.crc, crc32.IEEETable, b)
	}
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

// --- primitive encoding helpers ---

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

type sectionReader struct {
	r   *crcReader
	err error
	buf [8]byte
}

func newSectionReader(r *crcReader) *sectionReader { return &sectionReader{r: r} }

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
