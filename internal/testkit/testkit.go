// Package testkit is what the packages' tests share: the leak-checking
// TestMain, the settle loop and Race, true where sync.Pool drops a
// quarter of its puts and allocation budgets fail. Only tests import it.
package testkit

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"testing"
)

// Main runs a package's tests and fails the package, naming it pkg, when
// they end with more goroutines than they began with (a test world not
// ended), unless it was fuzzing: the fuzz engine keeps goroutines.
func Main(m *testing.M, pkg string) {
	before := runtime.NumGoroutine()
	code := m.Run()
	fuzzing := flag.Lookup("test.fuzz").Value.String() != ""
	if after := SettleAt(before); code == 0 && !fuzzing && after > before {
		fmt.Fprintf(os.Stderr, "%s: %d goroutines after the tests, %d before: a test world was not ended\n", pkg, after, before)
		code = 1
	}
	os.Exit(code)
}

// SettleAt reads the goroutine count until it is down to want (a
// finished goroutine exits in its own time) and returns the last read.
func SettleAt(want int) int {
	n := runtime.NumGoroutine()
	for i := 0; i < 100000 && n > want; i++ {
		runtime.Gosched()
		n = runtime.NumGoroutine()
	}
	return n
}
