package main

import (
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestExitNonzeroOnFindings re-executes this test binary as ksplint,
// with every check on, pointed at golden testdata that is known to
// contain droppederr findings, and asserts the process exits 1 (findings
// reported) rather than 0 or 2 (load/usage error). This pins the CI contract: a finding anywhere in
// the tree fails the lint job.
func TestExitNonzeroOnFindings(t *testing.T) {
	if os.Getenv("KSPLINT_MAIN") == "1" {
		os.Args = []string{"ksplint", "./internal/analysis/testdata/src/droppederr"}
		main()
		os.Exit(0) // main returning means zero findings
	}
	cmd := exec.Command(os.Args[0], "-test.run", "^TestExitNonzeroOnFindings$")
	cmd.Env = append(os.Environ(), "KSPLINT_MAIN=1")
	out, err := cmd.CombinedOutput()
	ee, ok := err.(*exec.ExitError)
	if !ok {
		t.Fatalf("want exit error, got err=%v, output:\n%s", err, out)
	}
	if code := ee.ExitCode(); code != 1 {
		t.Fatalf("want exit code 1, got %d, output:\n%s", code, out)
	}
	if !strings.Contains(string(out), "droppederr") {
		t.Fatalf("output does not mention droppederr findings:\n%s", out)
	}
}
