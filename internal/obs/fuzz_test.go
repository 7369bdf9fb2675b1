package obs

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"testing"
	"time"
)

// fuzzOut is a cell result shaped like the harness's: strings, float
// samples, a map and a nested pointer.
type fuzzOut struct {
	Name  string
	Times []float64
	Count map[string]int
	Next  *fuzzOut
}

// FuzzLoadInto: whatever bytes sit in an entry file, LoadInto never
// panics, hits exactly when Load hits with a Value that decodes (so an
// entry with no Value is a miss), and on a hit decodes the same Out and
// Timeline as decoding Load's raw Value.
func FuzzLoadInto(f *testing.F) {
	c, err := OpenCache(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	digest := CellDigest("cell", testOpts(), "spec")
	val, err := json.Marshal(fuzzOut{
		Name:  "obfs4",
		Times: []float64{1.5, 0.25, 120},
		Count: map[string]int{"ok": 3},
		Next:  &fuzzOut{Name: "tor"},
	})
	if err != nil {
		f.Fatal(err)
	}
	stored, err := json.Marshal(&Entry{Key: "cell", Digest: digest, Value: val,
		Timeline: &Timeline{Interval: time.Second, Samples: []Sample{{T: time.Second}}}})
	if err != nil {
		f.Fatal(err)
	}
	head := `{"Key":"cell","Digest":"` + digest + `"`
	f.Add(stored)
	f.Add([]byte(head + `}`))                                        // no Value key
	f.Add([]byte(head + `,"Value":null}`))                           // Value null
	f.Add(bytes.Replace(stored, []byte(digest), []byte("bogus"), 1)) // digest mismatch
	f.Add(stored[:len(stored)/2])                                    // truncated
	f.Add([]byte(head + `,"Value":"text"}`))                         // Value of the wrong type
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(c.path(digest), data, 0o644); err != nil {
			t.Fatal(err)
		}
		var got, want fuzzOut
		e, ok := c.LoadInto(digest, &got)
		re, rok := c.Load(digest)
		rok = rok && json.Unmarshal(re.Value, &want) == nil
		if ok != rok {
			t.Fatalf("LoadInto hit=%v, Load and decode hit=%v", ok, rok)
		}
		if !ok {
			return
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Out %+v, decoded from Load %+v", got, want)
		}
		if !reflect.DeepEqual(e.Timeline, re.Timeline) {
			t.Fatalf("Timeline %+v, Load %+v", e.Timeline, re.Timeline)
		}
	})
}

// FuzzParseBenchHistory: any stream parses without panicking, and every
// entry it returns carries benchmark numbers.
func FuzzParseBenchHistory(f *testing.F) {
	f.Add([]byte(`{"label":"a","ns":{"BenchmarkX":100}}` + "\n" + `{"label":"b","ns":{"BenchmarkX":90}}` + "\n"))
	f.Add([]byte(`{"label":"a","ns":{"BenchmarkX":100}}` + "\n" + `{"label":"torn","ns":{"Bench`))
	f.Add([]byte("not json\n\n{\"label\":\"bad\"}\r\n{\"ns\":{}}\n"))
	f.Add([]byte(`{"label":"a","ns":{"BenchmarkX":1}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		for i, e := range ParseBenchHistory(bytes.NewReader(data)) {
			if len(e.NS) == 0 {
				t.Fatalf("entry %d (%q) has no benchmarks", i, e.Label)
			}
		}
	})
}
