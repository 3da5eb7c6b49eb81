package alpha

import (
	"os"
	"testing"

	"ksp/internal/testutil"
)

// TestMain fails the package if any test leaks goroutines, such as a
// build worker that outlives its build.
func TestMain(m *testing.M) {
	os.Exit(testutil.VerifyMain(m))
}
