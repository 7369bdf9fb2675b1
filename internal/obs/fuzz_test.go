package obs

import (
	"bytes"
	"os"
	"reflect"
	"runtime"
	"testing"
	"time"
)

// fuzzOut is a cell result shaped like the harness's: strings, float
// samples, a map and a nested pointer, plus every other kind the codec
// encodes and a field it must leave alone.
type fuzzOut struct {
	Name   string
	OK     bool
	Small  int8
	Size   uint32
	Times  []float64
	Count  map[string]int
	Blob   []byte
	Next   *fuzzOut
	hidden int
}

func sampleOut() fuzzOut {
	return fuzzOut{
		Name:  "obfs4",
		OK:    true,
		Small: -3,
		Size:  1 << 20,
		Times: []float64{1.5, 0.25, 120},
		Count: map[string]int{"ok": 3, "failed": -1},
		Blob:  []byte{},
		Next:  &fuzzOut{Name: "tor", Count: map[string]int{}},
	}
}

func mustEncode(tb testing.TB, v any) []byte {
	tb.Helper()
	b, err := EncodeValue(v)
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// FuzzLoadInto: whatever bytes sit in an entry file, LoadInto never
// panics, hits exactly when Load hits with a Value that decodes (so an
// entry with no Value is a miss) and, when the lookup wants a timeline
// (interval > 0), with a Timeline of that Interval, and on a hit decodes
// the same Out and Timeline as decoding Load's raw Value.
func FuzzLoadInto(f *testing.F) {
	c, err := OpenCache(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	digest := CellDigest("cell", testOpts(), "spec")
	entry := func(e Entry) []byte {
		if err := c.Store(&e); err != nil {
			f.Fatal(err)
		}
		data, err := os.ReadFile(c.path(e.Digest))
		if err != nil {
			f.Fatal(err)
		}
		return data
	}
	stored := entry(Entry{Key: "cell", Digest: digest, Value: mustEncode(f, sampleOut()),
		Timeline: &Timeline{Interval: time.Second, Samples: []Sample{{T: time.Second}}}})
	plain := entry(Entry{Key: "cell", Digest: digest, Value: mustEncode(f, sampleOut())})
	flipped := bytes.Clone(stored)
	flipped[len(flipped)/2] ^= 1
	second := int64(time.Second)
	f.Add(stored, int64(0))
	f.Add(entry(Entry{Key: "cell", Digest: digest}), int64(0))                                   // no Value
	f.Add(entry(Entry{Key: "cell", Digest: digest, Value: mustEncode(f, []int{1})}), int64(0))   // Value of another shape
	f.Add(entry(Entry{Key: "cell", Digest: "bogus", Value: mustEncode(f, fuzzOut{})}), int64(0)) // digest mismatch
	f.Add(stored[:len(stored)/2], int64(0))                                                      // truncated
	f.Add(flipped, int64(0))                                                                     // damaged
	f.Add(stored, second)                                                                        // the timeline wanted
	f.Add(stored, 2*second)                                                                      // a timeline of another interval
	f.Add(plain, second)                                                                         // no timeline
	f.Add(plain, int64(0))                                                                       // none wanted
	f.Fuzz(func(t *testing.T, data []byte, interval int64) {
		if err := os.WriteFile(c.path(digest), data, 0o644); err != nil {
			t.Fatal(err)
		}
		var got, want fuzzOut
		e, ok := c.LoadInto(digest, &got, time.Duration(interval))
		re, rok := c.Load(digest)
		rok = rok && DecodeValue(re.Value, &want) == nil &&
			(interval <= 0 || re.Timeline != nil && int64(re.Timeline.Interval) == interval)
		if ok != rok {
			t.Fatalf("LoadInto(interval %d) hit=%v, Load and decode hit=%v", interval, ok, rok)
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

// FuzzDecodeValue: arbitrary bytes never panic the decoder nor make it
// allocate beyond a fixed multiple of their length, and whatever decodes
// re-encodes to exactly the same bytes (one encoding per value).
func FuzzDecodeValue(f *testing.F) {
	good := mustEncode(f, sampleOut())
	f.Add(good)
	f.Add(mustEncode(f, fuzzOut{}))
	f.Add(good[:len(good)-1])
	f.Add(append(bytes.Clone(good), 0))
	f.Add(append(bytes.Clone(good[:8]), 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0x0f)) // a huge Times count
	var out fuzzOut
	DecodeValue(good, &out) // fill the shape memo outside the measurement
	f.Fuzz(func(t *testing.T, data []byte) {
		var got fuzzOut
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := DecodeValue(data, &got)
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 256*uint64(len(data))+4096 {
			t.Fatalf("decoding %d bytes allocated %d", len(data), grew)
		}
		if err != nil {
			return
		}
		if again := mustEncode(t, got); !bytes.Equal(again, data) {
			t.Fatalf("decoded %+v re-encodes to\n%x\nnot\n%x", got, again, data)
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
