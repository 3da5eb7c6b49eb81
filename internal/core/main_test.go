package core

import (
	"os"
	"testing"

	"ksp/internal/testutil"
)

// TestMain fails the package if any test leaks goroutines — a query or
// a concurrent test that leaves one behind would otherwise only surface
// as flakes elsewhere.
func TestMain(m *testing.M) {
	os.Exit(testutil.VerifyMain(m))
}
