package reach

import (
	"fmt"

	"ksp/internal/rdf"
)

// KeywordIndex answers "can vertex v reach keyword t" with a single
// reachability query, via the term-vertex augmentation of Section 4.1: one
// extra vertex per term, with an edge from every vertex whose document
// contains the term to that term vertex.
type KeywordIndex struct {
	idx      *Index
	termVert []uint32 // term ID -> augmented vertex, NoVertex when unused
	numBase  int
}

// NewKeywordIndex builds the augmented reachability index for g.
// dir selects the traversal convention: for rdf.Outgoing the question is
// "does a directed path v -> ... -> keyword vertex exist"; for
// rdf.Undirected edges are doubled first.
func NewKeywordIndex(g *rdf.Graph, dir rdf.Direction) *KeywordIndex {
	n := g.NumVertices()
	numTerms := g.Vocab.Len()
	termVert := make([]uint32, numTerms)
	for i := range termVert {
		termVert[i] = rdf.NoVertex
	}
	// Assign augmented IDs to terms that occur somewhere.
	next := uint32(n)
	for v := uint32(0); int(v) < n; v++ {
		for _, t := range g.Doc(v) {
			if termVert[t] == rdf.NoVertex {
				termVert[t] = next
				next++
			}
		}
	}
	out := make([][]uint32, next)
	for v := uint32(0); int(v) < n; v++ {
		base := g.Out(v)
		if dir == rdf.Undirected {
			base = append(append([]uint32(nil), base...), g.In(v)...)
		}
		doc := g.Doc(v)
		lst := make([]uint32, 0, len(base)+len(doc))
		lst = append(lst, base...)
		for _, t := range doc {
			lst = append(lst, termVert[t])
		}
		out[v] = lst
	}
	return &KeywordIndex{idx: Build(out), termVert: termVert, numBase: n}
}

// CanReach reports whether v can reach any vertex whose document contains
// term (including v itself).
func (k *KeywordIndex) CanReach(v uint32, term uint32) bool {
	if int(term) >= len(k.termVert) {
		return false
	}
	tv := k.termVert[term]
	if tv == rdf.NoVertex {
		return false
	}
	return k.idx.Reachable(v, tv)
}

// MemSize estimates the index footprint in bytes.
func (k *KeywordIndex) MemSize() int64 {
	return k.idx.MemSize() + int64(len(k.termVert))*4
}

// LabelEntries exposes the underlying label size.
func (k *KeywordIndex) LabelEntries() int64 { return k.idx.LabelEntries() }

// Arrays are the arrays a KeywordIndex reads: the component of every
// augmented vertex (the graph's vertices, then the term vertices), the
// in- and out-labels of every component as rank blobs cut by offset
// tables, and the term vertex of every term (rdf.NoVertex when unused).
type Arrays struct {
	Comp          []uint32
	LinOff, Lin   []uint32
	LoutOff, Lout []uint32
	TermVert      []uint32
}

// Arrays returns the arrays the index reads. They must not be written to.
func (k *KeywordIndex) Arrays() Arrays {
	ix := k.idx
	return Arrays{Comp: ix.comp, LinOff: ix.linOff, Lin: ix.lin, LoutOff: ix.loutOff, Lout: ix.lout, TermVert: k.termVert}
}

// FromArrays serves a as the keyword index of a graph of the given
// number of vertices once it has checked everything a probe relies on:
//   - the two offset tables have one entry per component and one more,
//     start at 0, ascend, and end at their blobs;
//   - every component ID is below the component count;
//   - every label ascends strictly and names ranks below the component
//     count, which intersects relies on;
//   - every used term vertex is an augmented vertex, past the graph's,
//     and no two terms share one, and every augmented vertex is a term's.
//
// Which landmarks a label should hold cannot be checked without building
// the labels again. The index views a, which must not change while it is
// in use.
func FromArrays(a Arrays, vertices int) (*KeywordIndex, error) {
	if len(a.LinOff) == 0 || len(a.LoutOff) != len(a.LinOff) || len(a.Comp) < vertices {
		return nil, fmt.Errorf("reach: %d and %d label offsets, %d components for %d vertices",
			len(a.LinOff), len(a.LoutOff), len(a.Comp), vertices)
	}
	comps := uint32(len(a.LinOff) - 1)
	for v, c := range a.Comp {
		if c >= comps {
			return nil, fmt.Errorf("reach: vertex %d is in component %d of %d", v, c, comps)
		}
	}
	for _, l := range [2]struct{ off, blob []uint32 }{{a.LinOff, a.Lin}, {a.LoutOff, a.Lout}} {
		if l.off[0] != 0 || int(l.off[comps]) != len(l.blob) {
			return nil, fmt.Errorf("reach: label offsets run from %d to %d over %d entries", l.off[0], l.off[comps], len(l.blob))
		}
		for c := uint32(0); c < comps; c++ {
			lo, hi := l.off[c], l.off[c+1]
			if hi < lo {
				return nil, fmt.Errorf("reach: label offsets descend at component %d", c)
			}
			prev := int64(-1)
			for _, r := range l.blob[lo:hi] {
				if int64(r) <= prev || r >= comps {
					return nil, fmt.Errorf("reach: the label of component %d is not strictly ascending below %d", c, comps)
				}
				prev = int64(r)
			}
		}
	}
	used := make([]bool, len(a.Comp)-vertices)
	terms := 0
	for t, tv := range a.TermVert {
		if tv == rdf.NoVertex {
			continue
		}
		if int(tv) < vertices || int(tv) >= len(a.Comp) || used[int(tv)-vertices] {
			return nil, fmt.Errorf("reach: term %d has vertex %d, not an unused augmented vertex", t, tv)
		}
		used[int(tv)-vertices] = true
		terms++
	}
	if terms != len(used) {
		return nil, fmt.Errorf("reach: %d augmented vertices, %d terms use one", len(used), terms)
	}
	ix := &Index{comp: a.Comp, lin: a.Lin, linOff: a.LinOff, lout: a.Lout, loutOff: a.LoutOff}
	return &KeywordIndex{idx: ix, termVert: a.TermVert, numBase: vertices}, nil
}
