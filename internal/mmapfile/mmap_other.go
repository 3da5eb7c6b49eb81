//go:build !linux

package mmapfile

import (
	"errors"
	"os"
)

var errNoMmap = errors.New("mmapfile: memory mapping unsupported on this platform")

// mmap always fails on platforms without a wired syscall implementation,
// and so does Open.
func mmap(_ *os.File, _ int64) ([]byte, error) { return nil, errNoMmap }

func munmap(_ []byte) error { return nil }
