package conjure

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"testing"
)

// TestMain fails the package when its tests end with more goroutines
// than they began with: every test world must be ended, and a parked
// simulation goroutine is a goroutine the runtime never collects.
func TestMain(m *testing.M) {
	before := runtime.NumGoroutine()
	code := m.Run()
	// A fuzzing run keeps the fuzz engine's own goroutines.
	fuzzing := flag.Lookup("test.fuzz").Value.String() != ""
	if after := goroutinesSettleAt(before); code == 0 && !fuzzing && after > before {
		fmt.Fprintf(os.Stderr, "conjure: %d goroutines after the tests, %d before: a test world was not ended\n", after, before)
		code = 1
	}
	os.Exit(code)
}

// goroutinesSettleAt reads the goroutine count until it is down to want
// (a finished test's goroutine exits in its own time).
func goroutinesSettleAt(want int) int {
	n := runtime.NumGoroutine()
	for i := 0; i < 100000 && n > want; i++ {
		runtime.Gosched()
		n = runtime.NumGoroutine()
	}
	return n
}
