// Package view reads a little-endian byte image in place as the typed
// slices its reader indexes, and writes typed slices as such an image.
// A snapshot's arrays are views of one buffer — read onto the heap or
// mapped — with no per-element decode. This is the one place in the
// module that uses unsafe: every conversion checks the length, the
// alignment and the host's byte order first, so a misaligned or partial
// array is an error, never a misread, and a big-endian host is refused
// rather than served by a second decode path.
package view

import (
	"encoding/binary"
	"errors"
	"fmt"
	"unsafe"

	"ksp/internal/geo"
)

// Elem is an element type whose image is its in-memory bytes on a
// little-endian host: fixed size, no pointers, no padding.
type Elem interface {
	uint32 | geo.Point | geo.Rect
}

// ErrBigEndian refuses a host whose byte order is not the images'.
var ErrBigEndian = errors.New("view: images are little-endian and this host is not")

var littleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// Of returns b as a []T sharing b's memory, nil when b is empty. b must
// hold a whole number of elements and start aligned for T.
func Of[T Elem](b []byte) ([]T, error) {
	var zero T
	size, align := unsafe.Sizeof(zero), unsafe.Alignof(zero)
	switch {
	case !littleEndian:
		return nil, ErrBigEndian
	case uintptr(len(b))%size != 0:
		return nil, fmt.Errorf("view: %d bytes are not a whole number of %d-byte elements", len(b), size)
	case len(b) == 0:
		return nil, nil
	case uintptr(unsafe.Pointer(unsafe.SliceData(b)))%align != 0:
		return nil, fmt.Errorf("view: array at %p is not %d-byte aligned", unsafe.SliceData(b), align)
	}
	return unsafe.Slice((*T)(unsafe.Pointer(unsafe.SliceData(b))), uintptr(len(b))/size), nil
}

// Bytes returns the image of s, sharing s's memory.
func Bytes[T Elem](s []T) ([]byte, error) {
	if !littleEndian {
		return nil, ErrBigEndian
	}
	if len(s) == 0 {
		return nil, nil
	}
	var zero T
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(s))), uintptr(len(s))*unsafe.Sizeof(zero)), nil
}

// Alloc returns n zeroed heap bytes whose start is 8-byte aligned, so
// that views of them satisfy Of.
func Alloc(n int) []byte {
	if n == 0 {
		return []byte{}
	}
	words := make([]uint64, (n+7)/8)
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(words))), n)
}
