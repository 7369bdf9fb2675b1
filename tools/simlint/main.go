// Command simlint is the static guardian of the simulator's
// determinism and inline-event contracts (DESIGN.md "Static enforcement
// of the determinism contract"). It bundles seven analyzers:
//
//	wallclock      no time.Now/Sleep/After/Since/... anywhere in the module
//	seededrand     no top-level math/rand draws, and no rand.NewSource/rand.New
//	               in simulation packages: streams come from sim.NewRand(seed)
//	noparkinevent  Clock.EventAt arms / Conn.SetReadSink sinks never reach
//	               a parking primitive (the PR-9 inline-event contract)
//	rawgo          simulation packages spawn goroutines via Clock.Go only
//	maprange       report/render/digest code never iterates maps unsorted
//	nolocks        world packages hold no sync.Mutex/RWMutex/Cond/Locker:
//	               one run token per world means they guard nothing
//	norecover      world packages never recover(): it would swallow the
//	               sentinel Clock.Shutdown unwinds parked frames with
//
// The only escape hatch is //simlint:allow <analyzer> -- <reason>, with
// the reason mandatory; noparkinevent cannot be suppressed inside
// internal/netem or internal/tor at all.
//
// It runs two ways:
//
//	go vet -vettool=$(pwd)/bin/simlint ./...   # CI; covers test files
//	go run ./tools/simlint ./...               # standalone audit
//
// As a vettool it implements the go vet driver protocol (-V=full,
// -flags, and per-package vet.cfg invocations) against the standard
// library only; see vetcfg.go.
package main

import (
	"fmt"
	"os"
	"strings"

	"ptperf/tools/simlint/internal/analyzers"
	"ptperf/tools/simlint/internal/lint"
	"ptperf/tools/simlint/internal/load"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	if len(args) > 0 {
		switch {
		case args[0] == "-V=full" || args[0] == "-V":
			// go vet identifies the tool (and keys its action cache) by
			// this line; the executable hash invalidates it on rebuild.
			printVersion()
			return 0
		case args[0] == "-flags":
			// go vet queries the tool's flag set to parse its own
			// command line. simlint takes no analyzer flags.
			fmt.Println("[]")
			return 0
		case args[0] == "-h" || args[0] == "-help" || args[0] == "--help":
			usage()
			return 0
		}
	}
	if len(args) == 1 && strings.HasSuffix(args[0], ".cfg") {
		return runVetCfg(args[0])
	}
	return runStandalone(args)
}

func usage() {
	fmt.Fprintf(os.Stderr, `simlint: static enforcement of the simulator's determinism contracts

usage:
  go vet -vettool=/abs/path/to/simlint ./...    (preferred; includes test files)
  simlint [-tests] [packages]                   (standalone audit)

analyzers:
`)
	for _, a := range analyzers.All() {
		fmt.Fprintf(os.Stderr, "  %-14s %s\n", a.Name, a.Doc)
	}
	fmt.Fprintf(os.Stderr, "\nescape hatch: //simlint:allow <analyzer> -- <reason>   (reason mandatory)\n")
}

// runStandalone loads packages itself (go list -export) and analyzes
// them — the developer-facing audit mode.
func runStandalone(args []string) int {
	tests := false
	var patterns []string
	for _, a := range args {
		if a == "-tests" {
			tests = true
			continue
		}
		if strings.HasPrefix(a, "-") {
			fmt.Fprintf(os.Stderr, "simlint: unknown flag %s\n", a)
			usage()
			return 2
		}
		patterns = append(patterns, a)
	}
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := load.Load(".", tests, patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "simlint: %v\n", err)
		return 1
	}
	found := 0
	for _, p := range pkgs {
		diags, err := lint.RunPackage(p.Fset, p.Files, p.Pkg, p.Info, analyzers.All())
		if err != nil {
			fmt.Fprintf(os.Stderr, "simlint: %s: %v\n", p.ImportPath, err)
			return 1
		}
		for _, d := range diags {
			fmt.Fprintln(os.Stderr, d)
			found++
		}
	}
	if found > 0 {
		return 2
	}
	return 0
}
