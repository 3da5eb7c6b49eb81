package reach

import "sort"

// Index answers Reachable(u, v) queries on a digraph via SCC condensation
// plus pruned 2-hop landmark labels. Build with Build; queries are safe for
// concurrent use.
type Index struct {
	comp []uint32
	// Per component c, lin[linOff[c]:linOff[c+1]] are the sorted ranks of
	// the landmarks reaching c and lout[loutOff[c]:loutOff[c+1]] those of
	// the landmarks c reaches: two blobs and two offset tables, not one
	// slice header and one allocation per component.
	lin, lout       []uint32
	linOff, loutOff []uint32
}

// Build constructs the index from adjacency lists (out[v] are the
// successors of v).
func Build(out [][]uint32) *Index {
	scc := tarjanSCC(out)
	dagOut, dagIn := condense(out, scc)
	n := scc.numComp

	// Landmark order: degree-descending over the DAG — high-degree hubs
	// cover many paths, keeping labels short.
	order := make([]uint32, n)
	for i := range order {
		order[i] = uint32(i)
	}
	deg := make([]int, n)
	for v := 0; v < n; v++ {
		deg[v] = len(dagOut[v]) + len(dagIn[v])
	}
	sort.Slice(order, func(i, j int) bool { return deg[order[i]] > deg[order[j]] })
	rank := make([]uint32, n)
	for r, v := range order {
		rank[v] = uint32(r)
	}

	// Labels grow by appending while the landmarks are processed; they are
	// flattened once all are known.
	lin := make([][]uint32, n)
	lout := make([][]uint32, n)

	// Pruned BFS per landmark in rank order.
	visited := make([]uint32, n)
	epoch := uint32(0)
	var queue []uint32
	for _, lm := range order {
		r := rank[lm]
		// Forward: lm reaches w  =>  r joins lin[w].
		epoch++
		queue = append(queue[:0], lm)
		visited[lm] = epoch
		for head := 0; head < len(queue); head++ {
			w := queue[head]
			if intersects(lout[lm], lin[w]) {
				continue // already answerable; prune subtree
			}
			lin[w] = append(lin[w], r)
			for _, x := range dagOut[w] {
				if visited[x] != epoch {
					visited[x] = epoch
					queue = append(queue, x)
				}
			}
		}
		// Backward: w reaches lm  =>  r joins lout[w].
		epoch++
		queue = append(queue[:0], lm)
		visited[lm] = epoch
		for head := 0; head < len(queue); head++ {
			w := queue[head]
			if w != lm && intersects(lout[w], lin[lm]) {
				continue
			}
			lout[w] = append(lout[w], r)
			for _, x := range dagIn[w] {
				if visited[x] != epoch {
					visited[x] = epoch
					queue = append(queue, x)
				}
			}
		}
	}
	ix := &Index{comp: scc.comp}
	ix.lin, ix.linOff = flatten(lin)
	ix.lout, ix.loutOff = flatten(lout)
	return ix
}

// flatten concatenates the per-component labels into one blob plus the
// offsets that delimit them.
func flatten(labels [][]uint32) (blob, off []uint32) {
	total := 0
	for _, l := range labels {
		total += len(l)
	}
	blob = make([]uint32, 0, total)
	off = make([]uint32, len(labels)+1)
	for c, l := range labels {
		blob = append(blob, l...)
		off[c+1] = uint32(len(blob))
	}
	return blob, off
}

// intersects reports whether two rank-sorted labels share a landmark:
// with a = Lout(u) and b = Lin(w), whether the labels answer "u reaches
// w". Labels are appended in increasing rank order, so they are sorted.
func intersects(a, b []uint32) bool {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			return true
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return false
}

// Reachable reports whether there is a directed path from u to v (paths of
// length zero count: Reachable(u, u) is true).
func (ix *Index) Reachable(u, v uint32) bool {
	cu, cv := ix.comp[u], ix.comp[v]
	if cu == cv {
		return true
	}
	return intersects(ix.lout[ix.loutOff[cu]:ix.loutOff[cu+1]], ix.lin[ix.linOff[cv]:ix.linOff[cv+1]])
}

// NumComponents returns the number of SCCs.
func (ix *Index) NumComponents() int { return len(ix.linOff) - 1 }

// LabelEntries returns the total label size (index-size statistic).
func (ix *Index) LabelEntries() int64 { return int64(len(ix.lin) + len(ix.lout)) }

// MemSize estimates the index footprint in bytes: component map, label
// blobs and offset tables, four bytes an entry each.
func (ix *Index) MemSize() int64 {
	return 4 * (int64(len(ix.comp)) + ix.LabelEntries() + int64(len(ix.linOff)+len(ix.loutOff)))
}
