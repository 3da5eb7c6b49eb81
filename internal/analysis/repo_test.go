package analysis

import (
	"strings"
	"testing"
)

// TestRepoClean is the self-hosting gate: every check over every
// package of this module, under both build-tag sets CI exercises, must
// come back clean. A failure here means a commit introduced a finding
// without fixing it or adding a justified suppression.
func TestRepoClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	for _, tags := range [][]string{nil, {"faultinject"}} {
		name := "default"
		if len(tags) > 0 {
			name = strings.Join(tags, ",")
		}
		t.Run(name, func(t *testing.T) {
			pkgs, l, err := LoadModule(".", []string{"./..."}, tags)
			if err != nil {
				t.Fatalf("loading module: %v", err)
			}
			if len(pkgs) == 0 {
				t.Fatal("loaded no packages")
			}
			// Run audits as it goes: every //ksplint:ignore must still
			// hold a finding. A stale suppression is a license nobody
			// holds any more — delete it or re-justify it.
			for _, f := range Run(pkgs, DefaultConfig(l.ModulePath)) {
				t.Errorf("%s", f)
			}
		})
	}
}
