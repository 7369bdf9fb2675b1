package obs

import (
	"bytes"
	"os"
	"reflect"
	"testing"
	"time"

	"ptperf/internal/censor"
	"ptperf/internal/testbed"
)

func testOpts() testbed.Options {
	return testbed.Options{Seed: 3, ByteScale: 0.06, TrancoN: 2, CBLN: 2}
}

// TestCellDigest pins the digest contract: stable across calls,
// default-insensitive (two spellings of the same world share an entry),
// and sensitive to every input component.
func TestCellDigest(t *testing.T) {
	opts := testOpts()
	d := CellDigest("cell", opts, "spec")
	if d != CellDigest("cell", opts, "spec") {
		t.Fatal("digest unstable across calls")
	}
	if d != CellDigest("cell", opts.WithDefaults(), "spec") {
		t.Fatal("defaulted and raw options digest differently")
	}
	if d == CellDigest("other", opts, "spec") {
		t.Fatal("digest insensitive to cell key")
	}
	if d == CellDigest("cell", opts, struct{ Repeats int }{2}) {
		t.Fatal("digest insensitive to the declared inputs")
	}
	mutated := opts
	mutated.TrancoN = 3
	if d == CellDigest("cell", mutated, "spec") {
		t.Fatal("digest insensitive to world options")
	}
	mutated = opts
	lossy, err := censor.Lookup("lossy-path")
	if err != nil {
		t.Fatal(err)
	}
	mutated.Scenario = &lossy
	if d == CellDigest("cell", mutated, "spec") {
		t.Fatal("digest insensitive to censor scenario")
	}
}

// TestCacheRoundTrip stores an entry and loads it back bit-identically,
// checking the traffic counters along the way.
func TestCacheRoundTrip(t *testing.T) {
	c, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	digest := CellDigest("cell", testOpts(), "spec")
	if _, ok := c.Load(digest); ok {
		t.Fatal("empty cache reported a hit")
	}
	tl := &Timeline{Interval: time.Second, Samples: []Sample{{T: time.Second}}}
	val := mustEncode(t, map[string]float64{"x": 1.5})
	if err := c.Store(&Entry{Key: "cell", Digest: digest, Value: val, Timeline: tl}); err != nil {
		t.Fatalf("store: %v", err)
	}
	e, ok := c.Load(digest)
	if !ok {
		t.Fatal("stored entry missed")
	}
	if !bytes.Equal(e.Value, val) || e.Key != "cell" {
		t.Fatalf("entry round-trip mangled: %+v", e)
	}
	if !reflect.DeepEqual(e.Timeline, tl) {
		t.Fatalf("timeline round-trip mangled: %+v", e.Timeline)
	}
	if st := c.Stats(); st != (CacheStats{Hits: 1, Misses: 1, Stores: 1}) {
		t.Fatalf("stats = %+v, want 1/1/1", st)
	}
}

// TestCacheCorruptEntry requires corrupt or mismatched entries to read
// as misses, never as errors.
func TestCacheCorruptEntry(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	digest := CellDigest("cell", testOpts(), "spec")
	if err := os.WriteFile(c.path(digest), []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Load(digest); ok {
		t.Fatal("corrupt entry loaded as a hit")
	}
	// An entry whose recorded digest disagrees with its address is
	// likewise a miss (a mis-filed or tampered entry must recompute).
	if err := c.Store(&Entry{Key: "cell", Digest: "bogus", Value: mustEncode(t, 1)}); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(c.path("bogus"), c.path(digest)); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Load(digest); ok {
		t.Fatal("digest-mismatched entry loaded as a hit")
	}
	// A well-filed entry whose value does not decode into what the
	// caller expects is a miss too, and is counted as one.
	if err := c.Store(&Entry{Key: "cell", Digest: digest, Value: mustEncode(t, "text")}); err != nil {
		t.Fatal(err)
	}
	var n int
	if _, ok := c.LoadInto(digest, &n, 0); ok {
		t.Fatal("undecodable value loaded as a hit")
	}
	if st := c.Stats(); st != (CacheStats{Misses: 3, Stores: 2}) {
		t.Fatalf("stats = %+v, want 0 hits / 3 misses / 2 stores", st)
	}
	var s string
	if _, ok := c.LoadInto(digest, &s, 0); !ok || s != "text" {
		t.Fatalf("decodable value: ok=%v s=%q", ok, s)
	}
}

// TestCacheDamageIsAMiss: an entry with any one byte flipped, cut short
// at any length, or stored under another Out shape is a miss for
// LoadInto, never an error or a hit with a wrong value.
func TestCacheDamageIsAMiss(t *testing.T) {
	c, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	digest := CellDigest("cell", testOpts(), "spec")
	want := sampleOut()
	tl := &Timeline{Interval: time.Second, Samples: []Sample{{T: time.Second, Relays: []RelayPoint{{Relay: "guard", Queued: 3}}}}}
	if err := c.Store(&Entry{Key: "cell", Digest: digest, Value: mustEncode(t, want), Timeline: tl}); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(c.path(digest))
	if err != nil {
		t.Fatal(err)
	}
	load := func(data []byte) bool {
		t.Helper()
		if err := os.WriteFile(c.path(digest), data, 0o644); err != nil {
			t.Fatal(err)
		}
		var got fuzzOut
		_, ok := c.LoadInto(digest, &got, 0)
		if ok && !reflect.DeepEqual(got, want) {
			t.Fatalf("hit with %+v, stored %+v", got, want)
		}
		return ok
	}
	if !load(good) {
		t.Fatal("intact entry missed")
	}
	for i := range good {
		flipped := bytes.Clone(good)
		flipped[i] ^= 0x10
		if load(flipped) {
			t.Fatalf("entry with byte %d of %d flipped loaded as a hit", i, len(good))
		}
	}
	for n := range len(good) {
		if load(good[:n]) {
			t.Fatalf("entry cut to %d of %d bytes loaded as a hit", n, len(good))
		}
	}
	// A field renamed, a field widened, and a slice of the stored type:
	// each is another shape.
	type renamed struct {
		Label string
		OK    bool
		Small int8
		Size  uint32
		Times []float64
		Count map[string]int
		Blob  []byte
		Next  *fuzzOut
	}
	type widened struct {
		Name  string
		OK    bool
		Small int64
		Size  uint32
		Times []float64
		Count map[string]int
		Blob  []byte
		Next  *fuzzOut
	}
	for _, other := range []any{&renamed{}, &widened{}, &[]fuzzOut{}} {
		if !load(good) {
			t.Fatal("intact entry missed")
		}
		if _, ok := c.LoadInto(digest, other, 0); ok {
			t.Fatalf("entry of %T loaded into %T", want, other)
		}
	}
	if st := c.Stats(); st.Hits != 4 || st.Misses != 2*len(good)+3 {
		t.Fatalf("stats = %+v, want 4 hits / %d misses", st, 2*len(good)+3)
	}
}
