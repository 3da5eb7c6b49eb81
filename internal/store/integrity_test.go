package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"ksp/internal/alpha"
	"ksp/internal/core"
	"ksp/internal/gen"
	"ksp/internal/paperdata"
	"ksp/internal/rdf"
	"ksp/internal/reach"
)

// fixtureSnapshot is a small but fully featured snapshot (graph + α
// index) for corruption testing.
func fixtureSnapshot(t testing.TB) *Snapshot {
	t.Helper()
	g := gen.Generate(gen.DBpediaConfig(200, 5))
	e := core.NewEngine(g, rdf.Outgoing)
	e.EnableAlpha(2)
	return &Snapshot{
		Graph:       g,
		AlphaRadius: 2,
		Dir:         rdf.Outgoing,
		AlphaPlace:  e.Alpha.PlaceIdx,
		AlphaNode:   e.Alpha.NodeIdx,
	}
}

func encode(t testing.TB, s *Snapshot) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, s); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// withVersion returns a copy of the image raw whose header names the
// given format version.
func withVersion(raw []byte, version uint32) []byte {
	out := slices.Clone(raw)
	binary.LittleEndian.PutUint32(out[4:], version)
	return out
}

// Any flipped bit in a snapshot must surface as ErrCorrupt (or, for
// flips inside length prefixes, at worst another error — never a
// silently different dataset). Flips in the 8 header bytes are excluded:
// they legitimately report bad magic / unsupported version instead.
func TestReadDetectsBitFlips(t *testing.T) {
	raw := encode(t, fixtureSnapshot(t))
	if _, err := Read(bytes.NewReader(raw)); err != nil {
		t.Fatalf("pristine snapshot failed: %v", err)
	}
	step := len(raw) / 97
	if step < 1 {
		step = 1
	}
	for pos := 8; pos < len(raw); pos += step {
		mut := append([]byte(nil), raw...)
		mut[pos] ^= 0x40
		if _, err := Read(bytes.NewReader(mut)); err == nil {
			t.Fatalf("flip at byte %d went undetected", pos)
		}
	}
}

func TestReadDetectsTruncation(t *testing.T) {
	raw := encode(t, fixtureSnapshot(t))
	for _, keep := range []int{len(raw) - 1, len(raw) / 2, 20, 9} {
		_, err := Read(bytes.NewReader(raw[:keep]))
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("truncation to %d bytes: got %v, want ErrCorrupt", keep, err)
		}
	}
}

func TestReadCorruptIsNamedError(t *testing.T) {
	raw := encode(t, fixtureSnapshot(t))
	mut := append([]byte(nil), raw...)
	mut[100] ^= 0xff // inside the vocabulary section
	_, err := Read(bytes.NewReader(mut))
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("vocabulary corruption: got %v, want ErrCorrupt", err)
	}
}

// openAll opens raw in every way a snapshot is opened — Read, LoadFile
// and OpenDisk mapped — and returns what each gave, by name. Opened
// snapshots close when the test ends.
func openAll(t testing.TB, raw []byte) map[string]func() (*Snapshot, error) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "snap.bin")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	closing := func(s *Snapshot, err error) (*Snapshot, error) {
		if err == nil {
			t.Cleanup(func() { s.Close() })
		}
		return s, err
	}
	return map[string]func() (*Snapshot, error){
		"Read":           func() (*Snapshot, error) { return Read(bytes.NewReader(raw)) },
		"LoadFile":       func() (*Snapshot, error) { return LoadFile(path) },
		"OpenDisk(mmap)": func() (*Snapshot, error) { return closing(OpenDisk(path, true)) },
	}
}

// Only format version 5 loads. A file of any other version, older or
// newer, is refused in every mode with its version named, before any of
// it is read as an image.
func TestReadRefusesOldVersions(t *testing.T) {
	raw := encode(t, fixtureSnapshot(t))
	for _, version := range []uint32{1, 2, 3, 4, 6} {
		want := fmt.Sprintf("version %d ", version)
		for mode, open := range openAll(t, withVersion(raw, version)) {
			if _, err := open(); err == nil || !strings.Contains(err.Error(), want) || errors.Is(err, ErrCorrupt) {
				t.Errorf("format version %d, %s: got %v, want a refusal naming %q", version, mode, err, want)
			}
		}
	}
}

// Every open-time rule of the α images holds in every mode: each damaged
// image is refused with ErrCorrupt by Read, LoadFile and the mapped
// open, though every trailer matches.
func TestReadRejectsDamagedAlphaImage(t *testing.T) {
	for name, raw := range alphaDamage(t) {
		for mode, open := range openAll(t, raw) {
			if _, err := open(); !errors.Is(err, ErrCorrupt) {
				t.Errorf("%s, %s: got %v, want ErrCorrupt", name, mode, err)
			}
		}
	}
}

// imageParts locates the parts of an α image, as alpha.File documents
// its layout, in bytes from the image's start.
type imageParts struct {
	n, terms, ord, table, cols, postIDs, postW, stride int
}

func partsOf(img []byte, place bool) imageParts {
	le := binary.LittleEndian
	p := imageParts{n: int(le.Uint64(img)), terms: int(le.Uint64(img[8:])), ord: alpha.HeaderLen}
	p.stride = (p.n + 1) / 2
	ordLen := 0
	if place {
		p.ord += 4 * p.n
		if p.n > 0 {
			ordLen = int(le.Uint32(img[p.ord-4:])) + 1
		}
	}
	p.table = p.ord + 4*ordLen
	p.cols = p.table + 8*(p.terms+1)
	p.postIDs = p.cols + int(le.Uint64(img[16:]))*p.stride
	p.postW = p.postIDs + 4*int(le.Uint64(img[24:]))
	return p
}

// alphaDamage returns snapshots, by the rule each breaks, whose α images
// were damaged after they were written and whose trailers were then
// recomputed, so that nothing but the checks at open can see the damage.
// The fixture has an odd number of places and of R-tree nodes, place and
// node lists of more than one entry, and columns in both files.
func alphaDamage(t testing.TB) map[string][]byte {
	t.Helper()
	g := gen.Generate(gen.YagoConfig(500, 5))
	e := core.NewEngine(g, rdf.Outgoing)
	e.EnableAlpha(2)
	s := &Snapshot{Graph: g, Tree: e.Tree, AlphaRadius: 2, Dir: rdf.Outgoing, AlphaPlace: e.Alpha.PlaceIdx, AlphaNode: e.Alpha.NodeIdx}
	raw := encode(t, s)
	base := layoutOf(t, raw)
	if !bytes.Equal(base.bytes("alphaPlace"), s.AlphaPlace.Image()) || !bytes.Equal(base.bytes("alphaNode"), s.AlphaNode.Image()) {
		t.Fatal("the α images are not where the layout puts them")
	}
	for mode, open := range openAll(t, raw) {
		if _, err := open(); err != nil {
			t.Fatalf("the pristine snapshot, %s: %v", mode, err)
		}
	}
	le := binary.LittleEndian
	pp, np := partsOf(s.AlphaPlace.Image(), true), partsOf(s.AlphaNode.Image(), false)
	if pp.n%2 == 0 || np.n%2 == 0 || pp.cols == pp.postIDs || np.cols == np.postIDs {
		t.Fatalf("%d places, %d nodes, place columns %v, node columns %v: the fixture no longer covers the pad nibble of both files", pp.n, np.n, pp.cols != pp.postIDs, np.cols != np.postIDs)
	}
	// long is the first place list of more than one entry, as
	// [first, end) of posting indices.
	var long [2]int
	var longTerm int
	for term := 0; term < pp.terms && long[1] == 0; term++ {
		a := le.Uint64(s.AlphaPlace.Image()[pp.table+8*term:])
		b := le.Uint64(s.AlphaPlace.Image()[pp.table+8*term+8:])
		if a>>40 == b>>40 && b-a >= 2 {
			long, longTerm = [2]int{int(a & (1<<40 - 1)), int(b & (1<<40 - 1))}, term
		}
	}
	if long[1] == 0 {
		t.Fatal("the fixture has no place list of two entries")
	}
	idAt := func(img []byte, i int) []byte { return img[pp.postIDs+4*i:] }
	places := g.Places()
	notPlaceBelow := func(id uint32) uint32 {
		for v := int(id) - 1; v >= 0; v-- {
			if !g.IsPlace(uint32(v)) {
				return uint32(v)
			}
		}
		t.Fatalf("every vertex below %d is a place", id)
		return 0
	}
	damage := map[string]func(place, node []byte){
		"more columns than terms": func(place, _ []byte) { le.PutUint64(place[16:], uint64(pp.terms+1)) },
		"a header longer than its section": func(place, _ []byte) {
			le.PutUint64(place[24:], le.Uint64(place[24:])+1)
		},
		"a universe that is not the places' count": func(place, _ []byte) { le.PutUint64(place, uint64(pp.n-1)) },
		"a term table that ends short of the lists": func(place, _ []byte) {
			at := place[pp.table+8*pp.terms:]
			le.PutUint64(at, le.Uint64(at)-1)
		},
		"a term table that descends": func(place, _ []byte) {
			at := place[pp.table+8*longTerm:]
			a, b := le.Uint64(at), le.Uint64(at[8:])
			le.PutUint64(at, b)
			le.PutUint64(at[8:], a)
		},
		"a universe that is not the places": func(place, _ []byte) {
			le.PutUint32(place[alpha.HeaderLen:], places[1])
		},
		"ord that does not invert ids": func(place, _ []byte) {
			le.PutUint32(place[pp.ord+4*int(places[0]):], 1)
		},
		"ord that maps a vertex that is not a place": func(place, _ []byte) {
			le.PutUint32(place[pp.ord+4*int(notPlaceBelow(places[len(places)-1])):], 0)
		},
		"a list out of order": func(place, _ []byte) {
			a, b := le.Uint32(idAt(place, long[0])), le.Uint32(idAt(place, long[0]+1))
			le.PutUint32(idAt(place, long[0]), b)
			le.PutUint32(idAt(place, long[0]+1), a)
		},
		"a list entry listed twice": func(place, _ []byte) {
			le.PutUint32(idAt(place, long[0]+1), le.Uint32(idAt(place, long[0])))
		},
		"a list entry that is not a place": func(place, _ []byte) {
			le.PutUint32(idAt(place, long[0]), notPlaceBelow(le.Uint32(idAt(place, long[0]+1))))
		},
		"a list entry beyond every vertex": func(place, _ []byte) {
			le.PutUint32(idAt(place, long[1]-1), ^uint32(0)-1)
		},
		"a list distance beyond α": func(place, _ []byte) { place[pp.postW] = 3 },

		"a place nibble beyond α+1": func(place, _ []byte) {
			place[pp.cols] = place[pp.cols]&0xF0 | 4
		},
		"a node nibble beyond α+1": func(_, node []byte) {
			node[np.cols] = node[np.cols]&0x0F | 4<<4
		},
		"a place column's pad nibble": func(place, _ []byte) { place[pp.cols+pp.stride-1] |= 1 << 4 },
		"a node column's pad nibble":  func(_, node []byte) { node[np.cols+np.stride-1] |= 1 << 4 },
	}
	out := make(map[string][]byte, len(damage))
	for name, hurt := range damage {
		l := &imageLayout{raw: slices.Clone(raw), arrays: base.arrays, sections: base.sections}
		hurt(l.bytes("alphaPlace"), l.bytes("alphaNode"))
		if bytes.Equal(l.raw, raw) {
			t.Fatalf("%s: the damage changed nothing", name)
		}
		out[name] = l.resummed()
	}
	return out
}

// FuzzRead asserts the loader never panics or over-allocates on
// adversarial input — it may only return an error or a valid snapshot —
// read into memory or opened with OpenDisk, onto the heap and mapped.
// OpenDisk refuses everything Read refuses; an input it accepts,
// Read accepts too, with the same answer from every graph accessor and
// the same α bounds, bit for bit, at every place and node for two
// keyword sets, and the same R-tree and reachability answers. The seeds
// are snapshots with and without α, whole and cut, with damaged graph
// arrays and of edge shapes, and with reachability labels (no places, a
// single leaf, a deeper tree, damaged R-tree and label arrays); where the
// seeds of older format versions were, the same images stand with their
// version word set to 1, 2, 3 and 4.
func FuzzRead(f *testing.F) {
	small := paperdata.Figure1()
	var buf bytes.Buffer
	if err := Write(&buf, &Snapshot{Graph: small.G, Dir: rdf.Outgoing}); err != nil {
		f.Fatal(err)
	}
	raw := buf.Bytes()
	f.Add(raw)
	f.Add(raw[:len(raw)/2])
	f.Add(withVersion(raw, 1))
	f.Add([]byte{})
	e := core.NewEngine(small.G, rdf.Outgoing)
	e.EnableAlpha(2)
	withAlpha := &Snapshot{Graph: small.G, Dir: rdf.Outgoing, AlphaRadius: 2, AlphaPlace: e.Alpha.PlaceIdx, AlphaNode: e.Alpha.NodeIdx}
	alphaRaw := encode(f, withAlpha)
	for _, version := range []uint32{snapVersion, 2, 3} {
		f.Add(withVersion(alphaRaw, version))
	}
	for _, name := range []string{"one vertex", "no places"} {
		f.Add(encode(f, &Snapshot{Graph: shapeGraphs()[name]}))
	}
	damaged := graphDamage(f)
	for _, name := range []string{"an in-list that is not the transpose", "a document out of order", "nonzero padding between arrays"} {
		f.Add(damaged[name])
	}
	for _, name := range []string{"no places", "one vertex", "Figure 1"} {
		g := shapeGraphs()[name]
		f.Add(encode(f, &Snapshot{Graph: g, Reach: reach.NewKeywordIndex(g, rdf.Outgoing)}))
	}
	f.Add(withVersion(alphaRaw, 4))
	indexDamaged := indexDamage(f)
	for _, name := range []string{"an α node file over another tree", "leaves at two depths", "a place listed twice", "a label out of order", "two terms at one vertex"} {
		f.Add(indexDamaged[name].raw)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<22 {
			return
		}
		snap, err := Read(bytes.NewReader(data))
		if err == nil && snap.Graph == nil {
			t.Fatal("nil-graph snapshot without error")
		}
		path := filepath.Join(t.TempDir(), "fuzz.snap")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		for _, useMmap := range []bool{false, true} {
			disk, derr := OpenDisk(path, useMmap)
			if derr != nil {
				continue
			}
			if err != nil {
				disk.Close()
				t.Fatalf("OpenDisk(mmap=%v) accepted what Read refused: %v", useMmap, err)
			}
			sameSnapshot(t, fmt.Sprintf("OpenDisk(mmap=%v)", useMmap), disk, snap)
			if err := disk.Close(); err != nil {
				t.Fatal(err)
			}
		}
	})
}

// sameSnapshot demands that disk, opened with OpenDisk, hold what snap,
// read from the same bytes, holds: the same answer from every graph
// accessor, and α bounds bit for bit at every place and node ID the
// files could name for two keyword sets.
func sameSnapshot(t *testing.T, label string, disk, snap *Snapshot) {
	t.Helper()
	sameGraph(t, label, disk.Graph, snap.Graph)
	if (disk.Reach == nil) != (snap.Reach == nil) {
		t.Fatalf("%s: reachability labels %v, Read: %v", label, disk.Reach != nil, snap.Reach != nil)
	}
	sameIndexes(t, label, disk, snap)
	if disk.AlphaRadius != snap.AlphaRadius || (disk.AlphaIndex() == nil) != (snap.AlphaIndex() == nil) {
		t.Fatalf("%s: α = %d, Read: %d", label, disk.AlphaRadius, snap.AlphaRadius)
	}
	if snap.AlphaIndex() == nil {
		return
	}
	nodes := int(snap.AlphaNode.NumTerms()) + len(snap.Graph.Places()) + 2
	for _, terms := range [][]uint32{{0, 1, 2}, {3, 3, 5, ^uint32(0)}} {
		got, err := disk.AlphaIndex().LoadQuery(terms)
		if err != nil {
			t.Fatal(err)
		}
		want, err := snap.AlphaIndex().LoadQuery(terms)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range snap.Graph.Places() {
			if a, b := got.PlaceBound(p), want.PlaceBound(p); a != b {
				t.Fatalf("%s: terms %v: PlaceBound(%d) = %v, Read %v", label, terms, p, a, b)
			}
		}
		for n := uint32(0); int(n) < nodes; n++ {
			if a, b := got.NodeBound(n), want.NodeBound(n); a != b {
				t.Fatalf("%s: terms %v: NodeBound(%d) = %v, Read %v", label, terms, n, a, b)
			}
		}
		got.Release()
		want.Release()
	}
}
