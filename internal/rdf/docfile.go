package rdf

import (
	"encoding/binary"
	"fmt"

	"ksp/internal/mmapfile"
)

// AttachExternalDocs wires the graph's documents to a counted per-vertex
// region of an already-open file: at base, each vertex contributes a u32
// term count followed by its term IDs (the snapshot documents-section
// layout). lengths[v] is vertex v's term count and replaces the graph's
// document offsets; the in-memory term array is released. Only the
// offsets (4 bytes per vertex) stay resident — the out-of-core
// representation the paper points to for data beyond main memory
// (footnote 1 / Section 8). The graph does not own src: the caller
// (a store.Snapshot) manages its lifetime.
func (g *Graph) AttachExternalDocs(lengths []uint32, src *mmapfile.File, base int64) error {
	if g.docSrc != nil {
		return fmt.Errorf("rdf: documents already attached")
	}
	if len(lengths) != g.NumVertices() {
		return fmt.Errorf("rdf: %d document lengths for %d vertices", len(lengths), g.NumVertices())
	}
	off := make([]uint32, len(lengths)+1)
	for v, dl := range lengths {
		off[v+1] = off[v] + dl
	}
	g.docOff = off
	g.docTerms = nil
	g.docSrc, g.docBase = src, base
	return nil
}

// DocsOnDisk reports whether the documents are served from an attached
// file rather than memory.
func (g *Graph) DocsOnDisk() bool { return g.docSrc != nil }

// diskDoc decodes vertex v's document, terms [start, end) of the
// attached region, into a fresh slice.
func (g *Graph) diskDoc(v, start, end uint32) []uint32 {
	// v+1 count words (vertices 0..v) precede the terms of vertex v, on
	// top of the start (= docOff[v]) terms of the vertices before it.
	off := g.docBase + 4*(int64(start)+int64(v)+1)
	n := int(end - start)
	raw, err := g.docSrc.Range(off, 4*int64(n))
	if err != nil {
		// A read failure on the doc region is unrecoverable corruption of
		// a file whose CRCs verified at open; an empty doc would silently
		// corrupt results, so fail loudly.
		panic(fmt.Sprintf("rdf: doc read failed: %v", err))
	}
	doc := make([]uint32, n)
	for i := range doc {
		doc[i] = binary.LittleEndian.Uint32(raw[4*i:])
	}
	return doc
}
