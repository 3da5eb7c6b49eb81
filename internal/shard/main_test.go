package shard

import (
	"os"
	"testing"

	"ksp/internal/testutil"
)

// TestMain fails the package if any test leaks goroutines: a gather
// that returns while a tile call, a hedge or a gate timer still runs
// would otherwise only surface as flakes elsewhere.
func TestMain(m *testing.M) {
	os.Exit(testutil.VerifyMain(m))
}
