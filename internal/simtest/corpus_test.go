package simtest

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// FuzzParseRepro: ParseRepro refuses a line or returns a spec, never
// panics, and the spec it returns prints a repro line that parses back
// to a spec printing the same line.
func FuzzParseRepro(f *testing.F) {
	corpus, err := os.ReadFile(filepath.Join("testdata", "corpus", "seeds.txt"))
	if err != nil {
		f.Fatal(err)
	}
	for _, line := range strings.Split(string(corpus), "\n") {
		if line != "" && !strings.HasPrefix(line, "#") {
			f.Add(line)
		}
	}
	f.Add("simtest-v1 root=5 index=0 transports=")
	f.Add("simtest-v1 root=-3 index=-1 events=-1 faults=-2")
	f.Add("simtest-v1 root=-3 index=-1 phases=0 sites=1 repeats=1")
	f.Add("simtest-v1 root=5 index=0 transports=tor events=99")
	f.Fuzz(func(t *testing.T, line string) {
		s, err := ParseRepro(line)
		if err != nil {
			return
		}
		want := s.Repro()
		again, err := ParseRepro(want)
		if err != nil {
			t.Fatalf("%q parsed, but its repro line %q does not: %v", line, want, err)
		}
		if got := again.Repro(); got != want {
			t.Fatalf("%q parsed to %q, which parses to %q", line, want, got)
		}
	})
}
