package obs

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

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
	mutated.Scenario = "lossy-path"
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
	val := json.RawMessage(`{"x":1.5}`)
	if err := c.Store(&Entry{Key: "cell", Digest: digest, Value: val, Timeline: tl}); err != nil {
		t.Fatalf("store: %v", err)
	}
	e, ok := c.Load(digest)
	if !ok {
		t.Fatal("stored entry missed")
	}
	if string(e.Value) != string(val) || e.Key != "cell" {
		t.Fatalf("entry round-trip mangled: %+v", e)
	}
	if e.Timeline == nil || len(e.Timeline.Samples) != 1 || e.Timeline.Samples[0].T != time.Second {
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
	if err := os.WriteFile(filepath.Join(dir, digest+".json"), []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Load(digest); ok {
		t.Fatal("corrupt entry loaded as a hit")
	}
	// An entry whose recorded digest disagrees with its address is
	// likewise a miss (a mis-filed or tampered entry must recompute).
	b, _ := json.Marshal(&Entry{Key: "cell", Digest: "bogus", Value: json.RawMessage(`1`)})
	if err := os.WriteFile(filepath.Join(dir, digest+".json"), b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Load(digest); ok {
		t.Fatal("digest-mismatched entry loaded as a hit")
	}
	// A well-filed entry whose value does not decode into what the
	// caller expects is a miss too, and is counted as one.
	if err := c.Store(&Entry{Key: "cell", Digest: digest, Value: json.RawMessage(`"text"`)}); err != nil {
		t.Fatal(err)
	}
	var n int
	if _, ok := c.LoadInto(digest, &n); ok {
		t.Fatal("undecodable value loaded as a hit")
	}
	if st := c.Stats(); st != (CacheStats{Misses: 3, Stores: 1}) {
		t.Fatalf("stats = %+v, want 0 hits / 3 misses / 1 store", st)
	}
	var s string
	if _, ok := c.LoadInto(digest, &s); !ok || s != "text" {
		t.Fatalf("decodable value: ok=%v s=%q", ok, s)
	}
}
