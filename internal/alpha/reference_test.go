package alpha

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"ksp/internal/invindex"
	"ksp/internal/rdf"
	"ksp/internal/rtree"
)

// The build BuildFor replaced, kept as the reference the differential
// tests compare against: one map per place, every one kept alive, one more
// per R-tree node merged bottom-up, and an invindex.Builder that sorts and
// de-duplicates what it was handed.

// ReferenceBuildFor lets the external test package reach the reference,
// and TermsByForm the split of the vocabulary by form.
var (
	ReferenceBuildFor = referenceBuild
	TermsByForm       = termsByForm
)

// placeWN computes the α-radius word neighbourhood of one place
// (Definition 5): term -> min graph distance within radius α.
func placeWN(g *rdf.Graph, bfs *rdf.BFSState, p uint32, dir rdf.Direction, alphaRadius int) map[uint32]uint8 {
	wn := make(map[uint32]uint8)
	bfs.Run(p, dir, alphaRadius, func(v uint32, dist int) bool {
		for _, t := range g.Doc(v) {
			if old, ok := wn[t]; !ok || uint8(dist) < old {
				wn[t] = uint8(dist)
			}
		}
		return true
	})
	return wn
}

func referenceBuild(g *rdf.Graph, tree *rtree.RTree, alphaRadius int, dir rdf.Direction, places []uint32) *Index {
	placeB := invindex.NewBuilder()
	nodeB := invindex.NewBuilder()
	placeB.Reserve(g.Vocab.Len())
	nodeB.Reserve(g.Vocab.Len())

	// Per-place neighbourhoods, one worker per CPU, each with its own
	// BFS scratch.
	wns := make([]map[uint32]uint8, len(places))
	workers := runtime.GOMAXPROCS(0)
	if workers > len(places) {
		workers = len(places)
	}
	if workers > 1 {
		var next int64 = -1
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				bfs := rdf.NewBFSState(g)
				for {
					i := int(atomic.AddInt64(&next, 1))
					if i >= len(places) {
						return
					}
					wns[i] = placeWN(g, bfs, places[i], dir, alphaRadius)
				}
			}()
		}
		wg.Wait()
	} else if len(places) > 0 {
		bfs := rdf.NewBFSState(g)
		for i, p := range places {
			wns[i] = placeWN(g, bfs, p, dir, alphaRadius)
		}
	}
	placeWNByID := make(map[uint32]map[uint32]uint8, len(places))
	for i, p := range places {
		placeWNByID[p] = wns[i]
		for t, d := range wns[i] {
			placeB.Add(t, p, d)
		}
	}

	// Bottom-up aggregation over the R-tree.
	var walk func(n uint32) map[uint32]uint8
	walk = func(n uint32) map[uint32]uint8 {
		wn := make(map[uint32]uint8)
		merge := func(src map[uint32]uint8) {
			for t, d := range src {
				if old, ok := wn[t]; !ok || d < old {
					wn[t] = d
				}
			}
		}
		if tree.IsLeaf(n) {
			ids, _ := tree.Leaf(n)
			for _, id := range ids {
				merge(placeWNByID[id])
			}
		} else {
			for _, ch := range tree.Children(n) {
				merge(walk(ch))
			}
		}
		for t, d := range wn {
			nodeB.Add(t, n, d)
		}
		return wn
	}
	if tree.Len() > 0 {
		walk(tree.Root())
	}

	// The lists are packed into Files: the place file ranges over places,
	// the node file over every node of tree.
	place, err := pack(placeB.Build(), alphaRadius, placeUniverse(sortedSet(places)))
	if err != nil {
		panic(err)
	}
	node, err := pack(nodeB.Build(), alphaRadius, universe{n: tree.NumNodes()})
	if err != nil {
		panic(err)
	}
	return &Index{Alpha: alphaRadius, Dir: dir, PlaceIdx: place, NodeIdx: node}
}

// pack reads the lists of src term by term into a File over the ID
// space u. A list that does not ascend strictly, a distance beyond the
// radius and an entry outside u are errors.
func pack(src invindex.Index, alphaRadius int, u universe) (*File, error) {
	read := func() termReader {
		var list []invindex.Posting
		var ids, w []byte
		return func(term uint32) (termRep, error) {
			var err error
			if list, err = src.Postings(term, list[:0]); err != nil {
				return termRep{}, err
			}
			ids, w = ids[:0], w[:0]
			for i, p := range list {
				switch {
				case i > 0 && p.ID <= list[i-1].ID:
					return termRep{}, fmt.Errorf("entry %d follows entry %d", p.ID, list[i-1].ID)
				case int(p.Weight) > alphaRadius:
					return termRep{}, fmt.Errorf("entry %d at distance %d, beyond the radius %d", p.ID, p.Weight, alphaRadius)
				case u.ordinal(p.ID) == noOrd:
					return termRep{}, fmt.Errorf("entry %d is outside the ID space of the file", p.ID)
				}
				ids, w = le.AppendUint32(ids, p.ID), append(w, p.Weight)
			}
			return termRep{ids: ids, w: w}, nil
		}
	}
	f, _, err := derive(src.NumTerms(), alphaRadius, read, &u, nil, true)
	return f, err
}
