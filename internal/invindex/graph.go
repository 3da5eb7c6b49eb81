package invindex

import (
	"ksp/internal/rdf"
)

// FromGraph builds the document inverted index of the paper's Table 1:
// for every vertex, each term of its document is posted under weight 0. A
// term held by more than one vertex in 64 becomes a bitset over the vertex
// IDs, every other term a list of vertex IDs (MemIndex). One pass counts
// each term's document frequency, which decides its form and sizes both
// arenas exactly; a second pass sets the bits and writes the IDs in place.
// Vertices are visited in ascending ID order and a document lists each
// term once, so every list comes out strictly ascending.
func FromGraph(g *rdf.Graph) *MemIndex {
	n := g.NumVertices()
	count := make([]uint32, g.Vocab.Len())
	var total int64
	for v := 0; v < n; v++ {
		doc := g.Doc(uint32(v))
		for _, t := range doc {
			count[t]++
		}
		total += int64(len(doc))
	}
	m := &MemIndex{off: make([]uint64, len(count)+1), nw: (n + 63) / 64, total: total}
	var lists, sets uint64
	for t, c := range count {
		if 64*int64(c) > int64(n) && sets < maxBitsets {
			sets++
			m.df = append(m.df, c)
		} else {
			lists += uint64(c)
		}
		m.off[t+1] = lists | sets<<listBits
	}
	m.ids = make([]uint32, lists)
	m.words = make([]uint64, int(sets)*m.nw)
	clear(count) // now each list-form term's fill cursor
	for v := uint32(0); int(v) < n; v++ {
		for _, t := range g.Doc(v) {
			a, b := m.off[t], m.off[t+1]
			if k := int(a >> listBits); int(b>>listBits) != k {
				m.words[k*m.nw+int(v>>6)] |= 1 << (v & 63)
				continue
			}
			m.ids[a&listMask+uint64(count[t])] = v
			count[t]++
		}
	}
	return m
}
