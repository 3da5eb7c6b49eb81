// Package store persists a fully indexed dataset to a single snapshot
// file and restores it without re-running preprocessing.
//
// Motivation straight from the paper's Table 5: α-radius word-neighbourhood
// construction dominates preprocessing by orders of magnitude (≈20 hours
// for DBpedia at full scale), so a production deployment must build once
// and reload. The snapshot holds the graph (vocabulary, URIs, adjacency,
// documents, places) and the two α-radius inverted files; the R-tree, the
// document inverted index and the reachability labels are still rebuilt
// on load.
//
// Format version 4 stores every section as the image its reader indexes:
// each graph section is the aligned little-endian arrays an rdf.Graph
// reads (rdf.Arrays), and each α section the image of an alpha.File. The
// bytes Read holds on the heap and OpenDisk maps are the bytes the
// accessors read, with no decode: a loaded Graph is a set of views
// (package view) of them. Every section ends in a CRC32 (IEEE) trailer,
// verified at open in one pass over the file, after which the image is
// checked to be exactly what rdf.Builder.Build and the α build produce
// (rdf.FromArrays, alpha.OpenPlaces/OpenNodes). Any failure is
// ErrCorrupt.
//
// Versions 1 to 3 — streams of words decoded through an rdf.Builder;
// version 1 without trailers, versions 1 and 2 with the α files as
// invindex encodings — still load, onto the heap, through readLegacy.
// Loading one and saving it again upgrades it to version 4.
//
// The α-radius node postings are keyed by R-tree node IDs, which is safe
// because the R-tree is rebuilt with deterministic STR bulk loading from
// the same places with the same fanout, yielding identical node IDs
// (verified by TestSnapshotAlphaNodeIDsStable).
package store

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"ksp/internal/alpha"
	"ksp/internal/geo"
	"ksp/internal/mmapfile"
	"ksp/internal/rdf"
	"ksp/internal/text"
	"ksp/internal/view"
)

const (
	snapMagic = 0x6B535053 // "kSPS"
	// snapVersion 4 stores every section as its image; version 3 stored
	// the α files as images, version 2 added per-section CRC32 trailers.
	// Files of versions 1 to 3 remain loadable.
	snapVersion = 4
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
	// index was persisted.
	AlphaRadius int
	Dir         rdf.Direction
	AlphaPlace  *alpha.File
	AlphaNode   *alpha.File

	// src is the mapping the Graph and the α files are views of, for a
	// version 4 snapshot opened mapped (OpenDisk); nil when they are on
	// the heap. Owned by the Snapshot; release with Close.
	src *mmapfile.File
}

// The header is headerWords little-endian uint32s: the magic, the
// version and then, in this order, the counts every array length of the
// image derives from.
const (
	hVertices = 2 + iota
	hFlags
	hTerms
	hTermBytes
	hURIBytes
	hPreds
	hPredBytes
	hEdges
	hDocTerms
	hPlaces
	hAlphaRadius
	hDir
	headerWords
)

// Write serializes the snapshot in format version 4. Each section is a
// run of arrays, each starting 8-byte aligned after zero padding, then
// zero padding to four bytes short of alignment and the section's CRC32
// trailer, so that the next section starts aligned:
//
//	header      headerWords uint32s
//	vocabulary  term blob, term offsets, term-sorted permutation
//	URIs        URI blob, URI offsets, URI-sorted permutation
//	adjacency   predicate blob, predicate offsets, outOff, outEdges,
//	            outPreds, inOff, inEdges
//	documents   docOff, docTerms
//	places      place IDs, per-vertex place ordinals, coordinates
//	α place     the place file's image (when AlphaRadius > 0)
//	α node      the node file's image (when AlphaRadius > 0)
//
// The arrays are those of rdf.Arrays, in the host's byte order, which
// must be little-endian.
func Write(w io.Writer, s *Snapshot) error {
	if s.src != nil {
		return errors.New("store: cannot serialize a mapped snapshot; load it with Read first")
	}
	g, a := s.Graph, s.Graph.Arrays()
	var flags uint32
	if g.Analyzer().RemoveStopwords {
		flags |= 1
	}
	if g.Analyzer().Stemming {
		flags |= 2
	}
	head := make([]uint32, headerWords)
	head[0], head[1] = snapMagic, snapVersion
	head[hVertices], head[hFlags] = uint32(g.NumVertices()), flags
	head[hTerms], head[hTermBytes] = uint32(a.Terms.Len()), uint32(len(a.Terms.Blob))
	head[hURIBytes] = uint32(len(a.URIs.Blob))
	head[hPreds], head[hPredBytes] = uint32(a.Preds.Len()), uint32(len(a.Preds.Blob))
	head[hEdges], head[hDocTerms] = uint32(len(a.OutEdges)), uint32(len(a.DocTerms))
	head[hPlaces] = uint32(len(a.Places))
	head[hAlphaRadius], head[hDir] = uint32(s.AlphaRadius), uint32(s.Dir)

	bw := bufio.NewWriterSize(w, 1<<20)
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
	coords, err := view.Bytes(a.Coords)
	iw.fail(err)
	iw.array(coords)
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

// imageWriter writes the sections of an image, summing each for its
// trailer; the first error sticks.
type imageWriter struct {
	w   io.Writer
	off int64
	crc uint32 // of the section so far
	err error
}

var zeros [8]byte

func (iw *imageWriter) fail(err error) {
	if iw.err == nil {
		iw.err = err
	}
}

func (iw *imageWriter) write(b []byte) {
	if iw.err != nil {
		return
	}
	_, err := iw.w.Write(b)
	iw.fail(err)
	iw.crc = crc32.Update(iw.crc, crc32.IEEETable, b)
	iw.off += int64(len(b))
}

// pad writes zero bytes up to an offset of rem modulo 8.
func (iw *imageWriter) pad(rem int64) { iw.write(zeros[:(rem-iw.off%8+8)%8]) }

// array writes b and the zero padding that aligns what follows.
func (iw *imageWriter) array(b []byte) {
	iw.write(b)
	iw.pad(0)
}

func (iw *imageWriter) u32s(arrays ...[]uint32) {
	for _, a := range arrays {
		b, err := view.Bytes(a)
		iw.fail(err)
		iw.array(b)
	}
}

func (iw *imageWriter) table(t text.Table) {
	iw.array(t.Blob)
	iw.u32s(t.Off, t.Sorted)
}

// end closes a section: zero padding to four bytes short of alignment,
// then the trailer, which is not summed.
func (iw *imageWriter) end() {
	iw.pad(4)
	crc := iw.crc
	iw.write(binary.LittleEndian.AppendUint32(nil, crc))
	iw.crc = 0
}

// Read restores a snapshot written by Write onto the heap: the image is
// read into one aligned buffer, which the Graph and the α files view.
func Read(r io.Reader) (*Snapshot, error) {
	data := view.Alloc(1 << 16)
	n := 0
	for {
		if n == len(data) {
			grown := view.Alloc(2 * len(data))
			copy(grown, data)
			data = grown
		}
		k, err := r.Read(data[n:])
		n += k
		if err == io.EOF {
			s, _, err := decode(data[:n])
			return s, err
		}
		if err != nil {
			return nil, err
		}
	}
}

// decode restores the snapshot whose whole file is data, which must
// start 8-byte aligned, and reports whether the result views data (a
// version 4 image) rather than holding a decoded copy.
func decode(data []byte) (s *Snapshot, views bool, err error) {
	if len(data) < 8 {
		return nil, false, fmt.Errorf("%w: truncated in header", ErrCorrupt)
	}
	if binary.LittleEndian.Uint32(data) != snapMagic {
		return nil, false, errors.New("store: bad magic")
	}
	switch version := binary.LittleEndian.Uint32(data[4:]); {
	case version == snapVersion:
		s, err = readImage(data)
		return s, true, err
	case version >= 1 && version < snapVersion:
		s, err = readLegacy(bytes.NewReader(data))
		return s, false, err
	default:
		return nil, false, fmt.Errorf("store: unsupported version %d", version)
	}
}

// readImage views a version 4 image: it verifies every trailer in one
// pass, then checks the graph and α arrays are what a build makes.
func readImage(data []byte) (*Snapshot, error) {
	r := &imageReader{data: data}
	r.begin("header")
	head := r.u32s(headerWords)
	if err := r.end(); err != nil {
		return nil, err
	}
	count := func(i int) int64 { return int64(head[i]) }
	n, edges, places := count(hVertices), count(hEdges), count(hPlaces)
	var a rdf.Arrays
	r.begin("vocabulary")
	a.Terms = r.table(count(hTermBytes), count(hTerms), true)
	if err := r.end(); err != nil {
		return nil, err
	}
	r.begin("URIs")
	a.URIs = r.table(count(hURIBytes), n, true)
	if err := r.end(); err != nil {
		return nil, err
	}
	r.begin("adjacency")
	a.Preds = r.table(count(hPredBytes), count(hPreds), false)
	a.OutOff, a.OutEdges, a.OutPreds = r.u32s(n+1), r.u32s(edges), r.u32s(edges)
	a.InOff, a.InEdges = r.u32s(n+1), r.u32s(edges)
	if err := r.end(); err != nil {
		return nil, err
	}
	r.begin("documents")
	a.DocOff, a.DocTerms = r.u32s(n+1), r.u32s(count(hDocTerms))
	if err := r.end(); err != nil {
		return nil, err
	}
	r.begin("places")
	a.Places, a.PlaceOrd, a.Coords = r.u32s(places), r.u32s(n), array[geo.Point](r, 16*places)
	if err := r.end(); err != nil {
		return nil, err
	}
	s := &Snapshot{AlphaRadius: int(head[hAlphaRadius]), Dir: rdf.Direction(head[hDir])}
	if err := alpha.CheckRadius(s.AlphaRadius); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	g, err := rdf.FromArrays(a, analyzerOf(head[hFlags]))
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	s.Graph = g
	if s.AlphaRadius > 0 {
		r.begin("α place index")
		img := r.image(func(head []byte) (int, error) { return alpha.PlaceImageLen(head, g.Places()) })
		if err := r.end(); err != nil {
			return nil, err
		}
		if s.AlphaPlace, err = alpha.OpenPlaces(img, s.AlphaRadius, g.Places()); err != nil {
			return nil, fmt.Errorf("%w: α place index: %v", ErrCorrupt, err)
		}
		r.begin("α node index")
		img = r.image(alpha.NodeImageLen)
		if err := r.end(); err != nil {
			return nil, err
		}
		if s.AlphaNode, err = alpha.OpenNodes(img, s.AlphaRadius); err != nil {
			return nil, fmt.Errorf("%w: α node index: %v", ErrCorrupt, err)
		}
	}
	if r.off != len(data) {
		return nil, fmt.Errorf("%w: %d bytes after the last section", ErrCorrupt, len(data)-r.off)
	}
	return s, nil
}

// imageReader walks the sections of a version 4 image; the first error
// sticks, and end reports it.
type imageReader struct {
	data    []byte
	off     int
	start   int    // of the current section
	section string // the current section's name
	err     error
}

func (r *imageReader) begin(section string) { r.start, r.section = r.off, section }

// take returns the next n bytes and moves past them and the zero
// padding that aligns the next array.
func (r *imageReader) take(n int64) []byte {
	if r.err != nil {
		return nil
	}
	if n > int64(len(r.data)-r.off) {
		r.err = fmt.Errorf("%w: truncated in %s", ErrCorrupt, r.section)
		return nil
	}
	b := r.data[r.off : r.off+int(n) : r.off+int(n)]
	r.off += int(n)
	r.pad(0)
	return b
}

// pad moves past the zero bytes up to an offset of rem modulo 8.
func (r *imageReader) pad(rem int) {
	k := (rem - r.off%8 + 8) % 8
	switch {
	case r.err != nil:
	case k > len(r.data)-r.off:
		r.err = fmt.Errorf("%w: truncated in %s", ErrCorrupt, r.section)
	case !bytes.Equal(r.data[r.off:r.off+k], zeros[:k]):
		r.err = fmt.Errorf("%w: nonzero padding in %s", ErrCorrupt, r.section)
	default:
		r.off += k
	}
}

// array takes the next size bytes as a []T.
func array[T view.Elem](r *imageReader, size int64) []T {
	v, err := view.Of[T](r.take(size))
	if r.err == nil {
		r.err = err
	}
	return v
}

func (r *imageReader) u32s(n int64) []uint32 { return array[uint32](r, 4*n) }

func (r *imageReader) table(blob, strings int64, sorted bool) text.Table {
	t := text.Table{Blob: r.take(blob), Off: r.u32s(strings + 1)}
	if sorted {
		t.Sorted = r.u32s(strings)
	}
	return t
}

// image takes an α image, whose length size tells from its header.
func (r *imageReader) image(size func(head []byte) (int, error)) []byte {
	if r.err != nil {
		return nil
	}
	n, err := size(r.data[r.off:min(r.off+alpha.HeaderLen, len(r.data))])
	if err != nil {
		r.err = fmt.Errorf("%w: %s: %v", ErrCorrupt, r.section, err)
		return nil
	}
	return r.take(int64(n))
}

// end closes the current section: its padding, then its trailer,
// compared with the CRC of the section's bytes.
func (r *imageReader) end() error {
	r.pad(4)
	if r.err == nil && len(r.data)-r.off < 4 {
		r.err = fmt.Errorf("%w: truncated at %s trailer", ErrCorrupt, r.section)
	}
	if r.err != nil {
		return r.err
	}
	sum := crc32.ChecksumIEEE(r.data[r.start:r.off])
	if stored := binary.LittleEndian.Uint32(r.data[r.off:]); stored != sum {
		return fmt.Errorf("%w: %s crc mismatch (stored %08x, computed %08x)", ErrCorrupt, r.section, stored, sum)
	}
	r.off += 4
	return nil
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

// LoadFile reads a snapshot from path onto the heap, as Read does; it
// is OpenDisk without a mapping.
func LoadFile(path string) (*Snapshot, error) { return OpenDisk(path, false) }

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
