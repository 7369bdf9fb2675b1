package testbed

import (
	"errors"
	"maps"
	"testing"
	"time"

	"ptperf/internal/netem"
)

// TestForEachMethod: results are keyed by method, the errors of the
// methods that fail are joined in the virtual-time order they finish
// in, and sequential never runs two methods at once. Each method sleeps
// as many seconds as its name has letters.
func TestForEachMethod(t *testing.T) {
	methods := []string{"ccc", "a", "dddd", "bb"}
	for _, tc := range []struct {
		name       string
		sequential bool
		failOdd    bool
		most       int
		elapsed    time.Duration
		err        string
	}{
		{"parallel", false, false, 4, 4 * time.Second, ""},
		{"sequential", true, false, 1, 10 * time.Second, ""},
		{"parallel failures", false, true, 4, 4 * time.Second, "a: odd\nccc: odd"},
		{"sequential failures", true, true, 1, 10 * time.Second, "ccc: odd\na: odd"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n := netem.New(netem.WithSeed(1))
			t.Cleanup(n.Clock().Shutdown)
			clock := n.Clock()
			running, most := 0, 0
			out, err := ForEachMethod(&World{Net: n}, methods, tc.sequential, func(name string) (int, error) {
				running++
				most = max(most, running)
				clock.Sleep(time.Duration(len(name)) * time.Second)
				running--
				if tc.failOdd && len(name)%2 == 1 {
					return 0, errors.New("odd")
				}
				return len(name), nil
			})
			if most != tc.most {
				t.Errorf("%d methods ran at once, want %d", most, tc.most)
			}
			if got := clock.Now(); got != tc.elapsed {
				t.Errorf("took %v, want %v", got, tc.elapsed)
			}
			if tc.err != "" {
				if err == nil || err.Error() != tc.err || out != nil {
					t.Fatalf("got %v, %q; want no results and %q", out, err, tc.err)
				}
				return
			}
			want := map[string]int{"a": 1, "bb": 2, "ccc": 3, "dddd": 4}
			if err != nil || !maps.Equal(out, want) {
				t.Fatalf("got %v, %v; want %v", out, err, want)
			}
		})
	}
}
