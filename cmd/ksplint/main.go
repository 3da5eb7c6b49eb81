// Command ksplint runs the repository's invariant checks (DESIGN.md
// §12) over the module: determinism on result paths, obs nil-safety,
// lock discipline, context propagation, dropped errors and metric
// naming. It also fails on any //ksplint:ignore comment that suppresses
// nothing. It is the lint gate scripts/check.sh and CI run on every
// commit.
//
// Usage:
//
//	ksplint [-tags faultinject] [packages]
//
// Packages default to ./... of the enclosing module. Exit status is 1
// when findings remain after suppression, 2 on load or usage errors.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"ksp/internal/analysis"
)

func main() {
	tags := flag.String("tags", "", "comma-separated build tags (e.g. faultinject)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: ksplint [flags] [packages]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	var tagList []string
	if *tags != "" {
		tagList = strings.Split(*tags, ",")
	}
	cwd, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	pkgs, loader, err := analysis.LoadModule(cwd, flag.Args(), tagList)
	if err != nil {
		fatal(err)
	}
	findings := analysis.Run(pkgs, analysis.DefaultConfig(loader.ModulePath))
	for _, f := range findings {
		fmt.Println(f)
	}
	if n := len(findings); n > 0 {
		fmt.Fprintf(os.Stderr, "ksplint: %d finding(s)\n", n)
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ksplint:", err)
	os.Exit(2)
}
