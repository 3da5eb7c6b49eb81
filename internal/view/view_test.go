package view

import (
	"encoding/binary"
	"math"
	"slices"
	"testing"

	"ksp/internal/geo"
)

// A view reads the little-endian image as the values it was written
// from, and Bytes gives back the same image.
func TestRoundTrip(t *testing.T) {
	words := []uint32{0, 1, 0xDEADBEEF, math.MaxUint32}
	img := Alloc(4 * len(words))
	for i, w := range words {
		binary.LittleEndian.PutUint32(img[4*i:], w)
	}
	got, err := Of[uint32](img)
	if err != nil || !slices.Equal(got, words) {
		t.Fatalf("Of[uint32] = %v, %v; want %v", got, err, words)
	}
	if back, err := Bytes(got); err != nil || !slices.Equal(back, img) {
		t.Fatalf("Bytes = %v, %v; want %v", back, err, img)
	}

	pts := []geo.Point{{X: 1.5, Y: -2}, {X: math.Inf(1), Y: 0}}
	img = Alloc(16 * len(pts))
	for i, p := range pts {
		binary.LittleEndian.PutUint64(img[16*i:], math.Float64bits(p.X))
		binary.LittleEndian.PutUint64(img[16*i+8:], math.Float64bits(p.Y))
	}
	gotPts, err := Of[geo.Point](img)
	if err != nil || !slices.Equal(gotPts, pts) {
		t.Fatalf("Of[geo.Point] = %v, %v; want %v", gotPts, err, pts)
	}
	if back, err := Bytes(gotPts); err != nil || !slices.Equal(back, img) {
		t.Fatalf("Bytes(points) = %v, %v; want %v", back, err, img)
	}
}

// A view shares the image's memory: no copy is made.
func TestViewAliases(t *testing.T) {
	img := Alloc(8)
	v, err := Of[uint32](img)
	if err != nil {
		t.Fatal(err)
	}
	img[4] = 7
	if v[1] != 7 {
		t.Fatalf("v[1] = %d after writing its first byte, want 7", v[1])
	}
}

// A partial element, or an array that does not start aligned for its
// type, is an error; the conversion is never attempted (under -race,
// checkptr would reject it).
func TestRefusesPartialAndMisaligned(t *testing.T) {
	img := Alloc(40)
	for _, n := range []int{1, 2, 3, 5} {
		if _, err := Of[uint32](img[:n]); err == nil {
			t.Errorf("Of[uint32] of %d bytes succeeded", n)
		}
	}
	if _, err := Of[geo.Point](img[:24]); err == nil {
		t.Error("Of[geo.Point] of 24 bytes succeeded")
	}
	if _, err := Of[uint32](img[1:9]); err == nil {
		t.Error("Of[uint32] at an odd address succeeded")
	}
	if _, err := Of[uint32](img[4:12]); err != nil {
		t.Errorf("Of[uint32] at a 4-byte boundary: %v", err)
	}
	if _, err := Of[geo.Point](img[4:20]); err == nil {
		t.Error("Of[geo.Point] at a 4-byte boundary succeeded")
	}
	if v, err := Of[uint32](img[3:3]); err != nil || v != nil {
		t.Errorf("Of of an empty array = %v, %v; want nil, nil", v, err)
	}
}

// Alloc's bytes start 8-byte aligned and zeroed at every length.
func TestAllocAligned(t *testing.T) {
	for n := 0; n < 40; n++ {
		b := Alloc(n)
		if len(b) != n {
			t.Fatalf("Alloc(%d) has %d bytes", n, len(b))
		}
		if n >= 16 {
			if _, err := Of[geo.Point](b[:16]); err != nil {
				t.Fatalf("Alloc(%d): %v", n, err)
			}
		}
		for _, c := range b {
			if c != 0 {
				t.Fatalf("Alloc(%d) is not zeroed", n)
			}
		}
	}
}
