// Package testutil holds small shared test helpers.
package testutil

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"time"
)

// VerifyMain wraps testing.M.Run with a goroutine-leak check: the
// goroutine count after the tests (once finished goroutines settle)
// must not exceed the count before them. Cleanups run after the tests
// but before counting — use them to shut down shared infrastructure
// such as idle HTTP connections.
//
// Use from TestMain:
//
//	func TestMain(m *testing.M) { os.Exit(testutil.VerifyMain(m)) }
func VerifyMain(m interface{ Run() int }, cleanups ...func()) int {
	before := runtime.NumGoroutine() - signalLoops()
	code := m.Run()
	for _, c := range cleanups {
		c()
	}
	if code != 0 {
		return code
	}
	// Finished goroutines unwind asynchronously; poll with a generous
	// settle budget before declaring a leak.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if runtime.NumGoroutine()-signalLoops() <= before {
			return code
		}
		if time.Now().After(deadline) {
			break
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
	after := runtime.NumGoroutine()
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	fmt.Fprintf(os.Stderr, "goroutine leak: %d before tests, %d after settling\n%s\n",
		before, after, sanitize(buf))
	return 1
}

// signalLoops counts the os/signal delivery goroutine: the first
// signal.Notify anywhere in the process starts it and it never exits.
// Under -fuzz the testing package's coordinator starts it mid-run, and it
// is no leak of the code under test.
func signalLoops() int {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	return bytes.Count(buf, []byte("\nos/signal.loop()"))
}

// sanitize drops the runtime's own goroutines from a full stack dump to
// keep leak reports readable.
func sanitize(dump []byte) []byte {
	var out bytes.Buffer
	for _, g := range bytes.Split(dump, []byte("\n\n")) {
		if bytes.Contains(g, []byte("runtime.gc")) || bytes.Contains(g, []byte("GC worker")) {
			continue
		}
		out.Write(g)
		out.WriteString("\n\n")
	}
	return out.Bytes()
}
