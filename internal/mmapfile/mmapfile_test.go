package mmapfile

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

func writeTemp(t *testing.T, data []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "blob")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// Range views the file's bytes, and refuses a range outside them.
func TestRangeViewsFile(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("files are mapped on linux only")
	}
	data := make([]byte, 10000)
	for i := range data {
		data[i] = byte(i * 31)
	}
	m, err := Open(writeTemp(t, data))
	if err != nil {
		t.Fatal(err)
	}
	if m.Size() != int64(len(data)) {
		t.Fatalf("Size() = %d, want %d", m.Size(), len(data))
	}
	for _, r := range [][2]int64{{0, 100}, {9000, 1000}, {4321, 0}, {0, 10000}} {
		got, err := m.Range(r[0], r[1])
		if err != nil {
			t.Fatalf("Range(%d,%d): %v", r[0], r[1], err)
		}
		if !bytes.Equal(got, data[r[0]:r[0]+r[1]]) {
			t.Fatalf("Range(%d,%d) mismatch", r[0], r[1])
		}
	}
	if _, err := m.Range(9999, 2); err == nil {
		t.Fatal("Range past EOF succeeded")
	}
	if _, err := m.Range(-1, 1); err == nil {
		t.Fatal("Range with negative offset succeeded")
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
}

// An empty file cannot be mapped (a zero-length mapping is invalid), and
// neither can a missing one: Open fails.
func TestEmptyFile(t *testing.T) {
	if m, err := Open(writeTemp(t, nil)); err == nil {
		m.Close()
		t.Fatal("an empty file was mapped")
	}
	if m, err := Open(filepath.Join(t.TempDir(), "missing")); err == nil {
		m.Close()
		t.Fatal("a missing file was mapped")
	}
}
