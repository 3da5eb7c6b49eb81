// Package store persists a fully indexed dataset to a single snapshot
// file and restores it without re-running preprocessing.
//
// Motivation straight from the paper's Table 5: α-radius word-neighbourhood
// construction dominates preprocessing by orders of magnitude (≈20 hours
// for DBpedia at full scale), so a production deployment must build once
// and reload. The snapshot holds the graph (vocabulary, URIs, adjacency,
// documents, places), the R-tree over the places, the two α-radius
// inverted files and, when the dataset has them, the keyword reachability
// labels; only the document inverted index is rebuilt on load.
//
// Format version 5 stores every section as the image its reader indexes:
// each graph section is the aligned little-endian arrays an rdf.Graph
// reads (rdf.Arrays), the R-tree the arrays of an rtree.RTree, the labels
// those of a reach.KeywordIndex, and each α section the image of an
// alpha.File. The bytes Read holds on the heap and OpenDisk maps are the
// bytes the accessors read, with no decode: a loaded Graph, R-tree and
// index are sets of views (package view) of them. Every section ends in
// a CRC32 (IEEE) trailer, verified at open in one pass over the file,
// after which the image is checked to be what the builds produce
// (rdf.FromArrays, rtree.FromArrays, reach.FromArrays,
// alpha.OpenPlaces/OpenNodes), the R-tree to hold every place once at its
// location bit for bit, and the α node file to range over exactly the
// R-tree's nodes, which is what keys it by them. Any failure is
// ErrCorrupt. Two facts cannot be checked without building again, and
// rest on the trailers alone: the α distances, and which landmarks each
// reachability label holds.
//
// Only version 5 loads. A file of any other version is refused in every
// mode, with its version named: a snapshot is a cache of a build, and
// its source (N-Triples, or whatever a ksp.Builder was fed) is rebuilt
// and saved again instead.
package store

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"

	"ksp/internal/alpha"
	"ksp/internal/faultinject"
	"ksp/internal/geo"
	"ksp/internal/mmapfile"
	"ksp/internal/rdf"
	"ksp/internal/reach"
	"ksp/internal/rtree"
	"ksp/internal/text"
	"ksp/internal/view"
)

const (
	snapMagic = 0x6B535053 // "kSPS"
	// snapVersion is the one format version decode accepts; a file of
	// any other version is refused.
	snapVersion = 5
)

// ErrCorrupt marks a snapshot that failed integrity checking: a section
// CRC mismatch, a truncated stream, or structurally impossible data.
// Detect with errors.Is; the fix is re-generating the snapshot, not
// retrying the load.
var ErrCorrupt = errors.New("store: corrupt snapshot")

// Snapshot is the persisted state: the graph, the R-tree over its places,
// and the α-radius index and the keyword reachability index when the
// source engine had them.
type Snapshot struct {
	Graph *rdf.Graph
	// Tree is the R-tree over the Graph's places, the one the α node file
	// is keyed by. Write bulk-loads it when nil; a loaded snapshot's is
	// the file's.
	Tree *rtree.RTree
	// Reach is the keyword reachability index, nil when none was saved.
	// AlphaRadius and Dir describe the persisted α index; AlphaPlace /
	// AlphaNode are its two inverted files. AlphaRadius == 0 means no α
	// index was persisted.
	AlphaRadius int
	Dir         rdf.Direction
	AlphaPlace  *alpha.File
	AlphaNode   *alpha.File
	Reach       *reach.KeywordIndex

	// src is the mapping the Graph, the R-tree, the reachability index and
	// the α files are views of, for a snapshot opened mapped (OpenDisk);
	// nil when they are on the heap. Owned by the Snapshot; release with
	// Close.
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
	// The R-tree's node and leaf counts and the lengths of the
	// reachability arrays.
	hNodes
	hLeaves
	hReachVerts
	hReachComps
	hReachIn
	hReachOut
	headerWords
)

// The flags word holds the analyzer's switches and whether the snapshot
// holds reachability labels.
const (
	flagStopwords = 1 << iota
	flagStemming
	flagReach
)

// Write serializes the snapshot in format version 5. Each section is a
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
//	R-tree      node rectangles, entry offsets, children, item IDs,
//	            item coordinates
//	α place     the place file's image (when AlphaRadius > 0)
//	α node      the node file's image (when AlphaRadius > 0)
//	reach       components, in-label offsets and ranks, out-label
//	            offsets and ranks, term vertices (when Reach is set)
//
// The arrays are those of rdf.Arrays, rtree.Arrays and reach.Arrays, in
// the host's byte order, which must be little-endian.
func Write(w io.Writer, s *Snapshot) error {
	if s.src != nil {
		return errors.New("store: cannot serialize a mapped snapshot; load it with Read first")
	}
	g, a := s.Graph, s.Graph.Arrays()
	tree := s.Tree
	if tree == nil {
		tree = rtree.OfPlaces(g.Places(), g.Loc)
	}
	ta := tree.Arrays()
	var flags uint32
	if g.Analyzer().RemoveStopwords {
		flags |= flagStopwords
	}
	if g.Analyzer().Stemming {
		flags |= flagStemming
	}
	head := make([]uint32, headerWords)
	head[0], head[1] = snapMagic, snapVersion
	head[hVertices] = uint32(g.NumVertices())
	head[hTerms], head[hTermBytes] = uint32(a.Terms.Len()), uint32(len(a.Terms.Blob))
	head[hURIBytes] = uint32(len(a.URIs.Blob))
	head[hPreds], head[hPredBytes] = uint32(a.Preds.Len()), uint32(len(a.Preds.Blob))
	head[hEdges], head[hDocTerms] = uint32(len(a.OutEdges)), uint32(len(a.DocTerms))
	head[hPlaces] = uint32(len(a.Places))
	head[hAlphaRadius], head[hDir] = uint32(s.AlphaRadius), uint32(s.Dir)
	head[hNodes], head[hLeaves] = uint32(len(ta.Rects)), uint32(ta.Leaves)
	var ra reach.Arrays
	if s.Reach != nil {
		flags |= flagReach
		ra = s.Reach.Arrays()
		head[hReachVerts], head[hReachComps] = uint32(len(ra.Comp)), uint32(len(ra.LinOff)-1)
		head[hReachIn], head[hReachOut] = uint32(len(ra.Lin)), uint32(len(ra.Lout))
	}
	head[hFlags] = flags

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
	writeArray(iw, a.Coords)
	iw.end()
	writeArray(iw, ta.Rects)
	iw.u32s(ta.Off, ta.Children, ta.IDs)
	writeArray(iw, ta.Locs)
	iw.end()
	if s.AlphaRadius > 0 {
		iw.array(s.AlphaPlace.Image())
		iw.end()
		iw.array(s.AlphaNode.Image())
		iw.end()
	}
	if s.Reach != nil {
		iw.u32s(ra.Comp, ra.LinOff, ra.Lin, ra.LoutOff, ra.Lout, ra.TermVert)
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
		writeArray(iw, a)
	}
}

// writeArray writes the image of a and the padding that aligns what
// follows.
func writeArray[T view.Elem](iw *imageWriter, a []T) {
	b, err := view.Bytes(a)
	iw.fail(err)
	iw.array(b)
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
			return decode(data[:n])
		}
		if err != nil {
			return nil, err
		}
	}
}

// decode restores the snapshot whose whole file is data, which must
// start 8-byte aligned; the result views data.
func decode(data []byte) (*Snapshot, error) {
	if len(data) < 8 {
		return nil, fmt.Errorf("%w: truncated in header", ErrCorrupt)
	}
	if binary.LittleEndian.Uint32(data) != snapMagic {
		return nil, errors.New("store: bad magic")
	}
	if version := binary.LittleEndian.Uint32(data[4:]); version != snapVersion {
		return nil, fmt.Errorf("store: snapshot format version %d is not version %d, the only one that loads; "+
			"rebuild the dataset from its source (ksp.OpenFile or ksp.Builder) and save it again with Dataset.Save", version, snapVersion)
	}
	return readImage(data)
}

// readImage views an image: it verifies every trailer in one pass, then
// checks each array is what a build makes.
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
	r.begin("R-tree")
	nodes := count(hNodes)
	ta := rtree.Arrays{Leaves: int(head[hLeaves])}
	ta.Rects = array[geo.Rect](r, 32*nodes)
	ta.Off, ta.Children, ta.IDs = r.u32s(nodes+1), r.u32s(max(nodes-1, 0)), r.u32s(places)
	ta.Locs = array[geo.Point](r, 16*places)
	if err := r.end(); err != nil {
		return nil, err
	}
	if s.Tree, err = rtree.FromArrays(ta, rtree.DefaultMaxEntries); err == nil {
		err = checkTreeItems(ta, a)
	}
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
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
		if u := s.AlphaNode.Universe(); u != s.Tree.NumNodes() {
			return nil, fmt.Errorf("%w: the α node index ranges over %d nodes, the R-tree has %d", ErrCorrupt, u, s.Tree.NumNodes())
		}
	}
	if head[hFlags]&flagReach != 0 {
		if s.Reach, err = readReach(r, count, g); err != nil {
			return nil, err
		}
	} else if head[hReachVerts]|head[hReachComps]|head[hReachIn]|head[hReachOut] != 0 {
		return nil, fmt.Errorf("%w: reachability counts without reachability labels", ErrCorrupt)
	}
	if r.off != len(data) {
		return nil, fmt.Errorf("%w: %d bytes after the last section", ErrCorrupt, len(data)-r.off)
	}
	return s, nil
}

// analyzerOf decodes the header's analyzer flags: queries on the restored
// graph must normalize keywords as its documents were.
func analyzerOf(flags uint32) text.Analyzer {
	return text.Analyzer{RemoveStopwords: flags&flagStopwords != 0, Stemming: flags&flagStemming != 0}
}

// checkTreeItems verifies that the R-tree holds every place of the graph
// a exactly once, at its location bit for bit.
func checkTreeItems(t rtree.Arrays, a rdf.Arrays) error {
	if len(t.IDs) != len(a.Places) {
		return fmt.Errorf("the R-tree holds %d items, the graph has %d places", len(t.IDs), len(a.Places))
	}
	seen := make([]bool, len(a.Places))
	for i, id := range t.IDs {
		if int(id) >= len(a.PlaceOrd) || int(a.PlaceOrd[id]) >= len(seen) || seen[a.PlaceOrd[id]] {
			return fmt.Errorf("R-tree item %d is vertex %d, not a place it holds once", i, id)
		}
		o := a.PlaceOrd[id]
		seen[o] = true
		p, q := t.Locs[i], a.Coords[o]
		if math.Float64bits(p.X) != math.Float64bits(q.X) || math.Float64bits(p.Y) != math.Float64bits(q.Y) {
			return fmt.Errorf("R-tree item %d puts place %d at %v, the graph at %v", i, id, p, q)
		}
	}
	return nil
}

// readReach views the reachability section of g's image.
func readReach(r *imageReader, count func(int) int64, g *rdf.Graph) (*reach.KeywordIndex, error) {
	r.begin("reach")
	comps := count(hReachComps)
	var ra reach.Arrays
	ra.Comp, ra.LinOff, ra.Lin = r.u32s(count(hReachVerts)), r.u32s(comps+1), r.u32s(count(hReachIn))
	ra.LoutOff, ra.Lout, ra.TermVert = r.u32s(comps+1), r.u32s(count(hReachOut)), r.u32s(count(hTerms))
	if err := r.end(); err != nil {
		return nil, err
	}
	k, err := reach.FromArrays(ra, g.NumVertices())
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return k, nil
}

// imageReader walks the sections of an image; the first error sticks,
// and end reports it.
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

// PointSaveRename fires in SaveFile once the new snapshot is written
// and synced to its temp file, before the rename puts it in place: a
// fault there is a save that dies before it commits.
var PointSaveRename = faultinject.Register("store.save.rename")

// SaveFile writes the snapshot to path by replacing the file, never by
// rewriting it: the image goes to a temp file in path's directory, which
// is synced, renamed over path, and the directory synced. A dataset
// mapped from the old file keeps its inode, and with it its bytes; a save
// that fails at any step, or dies before the rename, leaves the old file
// as it was and no temp file behind. The new file's mode is 0644.
func SaveFile(path string, s *Snapshot) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	committed := false
	defer func() {
		if !committed {
			//ksplint:ignore droppederr -- error-path cleanup; the save's own error already wins
			f.Close()
			//ksplint:ignore droppederr -- error-path cleanup; the save's own error already wins
			os.Remove(f.Name())
		}
	}()
	if err := Write(f, s); err != nil {
		return err
	}
	if err := f.Chmod(0o644); err != nil {
		return err
	}
	if err := f.Sync(); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	faultinject.Fire(PointSaveRename)
	if err := os.Rename(f.Name(), path); err != nil {
		return err
	}
	committed = true
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	return errors.Join(d.Sync(), d.Close())
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
