package ksp

import (
	"net/http"
	"os"
	"testing"

	"ksp/internal/testutil"
)

// TestMain fails the package if any test leaks goroutines; idle HTTP
// client connections are shut down first so they don't read as leaks.
func TestMain(m *testing.M) {
	os.Exit(testutil.VerifyMain(m, func() {
		if tr, ok := http.DefaultTransport.(*http.Transport); ok {
			tr.CloseIdleConnections()
		}
	}))
}
