package obs

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime/debug"
	"sync"
	"time"

	"ptperf/internal/testbed"
)

// This file is the content-addressed world-result cache. A cell's cache
// key digests everything its result is a function of: the code version,
// the cell key, the fully-defaulted testbed.Options (scenario and fault
// specs included — they are plain value trees, so the value codec
// encodes them canonically), and the cell's declared inputs: the plain
// struct holding every harness knob its measurement can read (method
// list, repeats, ...). Equal digest ⇒ byte-identical result, because
// worlds are deterministic functions of exactly those inputs — the
// determinism tests are what make this cache sound. Observing a world
// moves none of its bytes, so the sampling interval is not an input: a
// run with metrics and one without share entries, and only a lookup
// that wants a timeline asks more of one (LoadInto).
//
// Entries are binary files named <digest>.entry under the cache
// directory, written atomically (temp file + rename) so a killed run
// never leaves a torn entry. An entry is CacheVersion, the Entry in the
// value codec (codec.go), then a CRC-32C of all that. The Entry's
// encoding starts with the fingerprint of its own type, Timeline
// included, and its Value with that of the cell's Out, so a file of
// another layout or a value of another shape is a miss. Floats travel
// as their IEEE bits, so a decoded value is the computed one and renders
// byte-identically. The digest's preimage is the same codec's bytes.

// CacheVersion invalidates every cache entry when the measurement
// semantics or the digest layout change. It is combined with the
// module's VCS revision when the binary carries one; bump it when making
// changes that alter results without a revision change being visible
// (e.g. `go test` in a dirty tree).
const CacheVersion = "ptperf-cache-v5"

// codeVersion is the cache's code-version component, fixed for the life
// of the process: every digest of every run reads it.
var codeVersion = func() string {
	v := CacheVersion
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				v += "+" + s.Value
			}
			if s.Key == "vcs.modified" && s.Value == "true" {
				v += "+dirty"
			}
		}
	}
	return v
}()

// CellDigest returns the content address of one world-cell computation:
// sha256 over the value codec's encoding of (version, cell key,
// fully-defaulted options) followed by that of the declared inputs. Each
// encoding reads back unambiguously, so the two laid end to end name one
// pair of values. opts is digested after defaulting so two spellings of
// the same world share an entry; in is any value EncodeValue accepts
// (the harness passes the cell's input struct).
func CellDigest(key string, opts testbed.Options, in any) string {
	pre := digestBufs.Get().(*[]byte)
	defer digestBufs.Put(pre)
	b, err := appendEncoding((*pre)[:0], digestHead{codeVersion, key, opts.WithDefaults()})
	if err == nil {
		b, err = appendEncoding(b, in)
	}
	if err != nil {
		// Options and cell inputs are plain value trees; an encoding
		// failure is a programming error, not an input condition.
		panic(fmt.Sprintf("obs: cell digest: %v", err))
	}
	*pre = b
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// digestHead is what CellDigest encodes ahead of a cell's inputs.
type digestHead struct {
	Version string
	Key     string
	Opts    testbed.Options
}

// digestBufs lends CellDigest the array it builds a preimage in.
var digestBufs = sync.Pool{New: func() any { return new([]byte) }}

// Entry is one cached cell: the result value (EncodeValue's bytes) plus
// the metric timeline recorded while computing it (nil when metrics were
// off).
type Entry struct {
	// Key is the cell key, stored for humans inspecting the cache.
	Key string
	// Digest is the entry's content address (redundant with the file
	// name; Load cross-checks it).
	Digest string
	// Value is the cell result as EncodeValue encodes it.
	Value []byte
	// Timeline is the cell's metric timeline, if one was recorded.
	Timeline *Timeline
}

// CacheStats counts one run's cache traffic.
type CacheStats struct {
	// Hits counts cells answered from the cache.
	Hits int
	// Misses counts lookups that found no (valid) entry.
	Misses int
	// Stores counts entries written.
	Stores int
}

// Cache is a content-addressed store of world-cell results under one
// directory. Methods are safe for concurrent use from world tasks.
type Cache struct {
	dir string

	mu    sync.Mutex
	stats CacheStats
}

// OpenCache opens (creating if needed) a cache directory.
func OpenCache(dir string) (*Cache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("obs: open cache: %w", err)
	}
	return &Cache{dir: dir}, nil
}

// Stats returns the traffic counters so far.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

func (c *Cache) path(digest string) string {
	return filepath.Join(c.dir, digest+".entry")
}

// castagnoli is the CRC-32C table of the entry trailer.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Load fetches the entry at digest. A missing, unreadable, damaged or
// digest-mismatched entry is a miss (corrupt entries are treated as
// absent, never fatal).
func (c *Cache) Load(digest string) (*Entry, bool) { return c.LoadInto(digest, nil, 0) }

// LoadInto is Load that also decodes the entry's Value into out (when
// non-nil). A value that does not decode — a different Out shape, or
// schema drift without a version bump — is a miss like any other corrupt
// entry: the caller recomputes and overwrites it, and the run's stats
// say so. So is an entry with no Value at all, and, when interval > 0
// asks for a timeline, one without a timeline sampled every interval.
// After a miss, out is unspecified.
func (c *Cache) LoadInto(digest string, out any, interval time.Duration) (*Entry, bool) {
	e, ok := c.read(digest, out)
	if ok && interval > 0 && (e.Timeline == nil || e.Timeline.Interval != interval) {
		e, ok = nil, false
	}
	c.mu.Lock()
	if ok {
		c.stats.Hits++
	} else {
		c.stats.Misses++
	}
	c.mu.Unlock()
	return e, ok
}

func (c *Cache) read(digest string, out any) (*Entry, bool) {
	buf := readBufs.Get().(*bytes.Buffer)
	defer readBufs.Put(buf)
	buf.Reset()
	f, err := os.Open(c.path(digest))
	if err == nil {
		_, err = buf.ReadFrom(f)
		f.Close()
	}
	data := buf.Bytes()
	if err != nil || len(data) < len(CacheVersion)+4 || string(data[:len(CacheVersion)]) != CacheVersion {
		return nil, false
	}
	body, sum := data[:len(data)-4], data[len(data)-4:]
	if crc32.Checksum(body, castagnoli) != binary.LittleEndian.Uint32(sum) {
		return nil, false
	}
	var e Entry
	if DecodeValue(body[len(CacheVersion):], &e) != nil || e.Digest != digest {
		return nil, false
	}
	if out != nil && DecodeValue(e.Value, out) != nil {
		return nil, false
	}
	return &e, true
}

// readBufs lends read the array an entry is read into. Nothing decoded
// points into it: DecodeValue copies every string, byte slice and
// number an Entry and its Value keep.
var readBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// Store writes the entry at its digest, atomically (temp file in the
// cache directory, then rename).
func (c *Cache) Store(e *Entry) error {
	enc, err := EncodeValue(*e)
	if err != nil {
		return fmt.Errorf("obs: cache store %s: %w", e.Key, err)
	}
	data := append([]byte(CacheVersion), enc...)
	data = binary.LittleEndian.AppendUint32(data, crc32.Checksum(data, castagnoli))
	tmp, err := os.CreateTemp(c.dir, "tmp-*")
	if err != nil {
		return fmt.Errorf("obs: cache store %s: %w", e.Key, err)
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("obs: cache store %s: %w", e.Key, err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("obs: cache store %s: %w", e.Key, err)
	}
	if err := os.Rename(tmp.Name(), c.path(e.Digest)); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("obs: cache store %s: %w", e.Key, err)
	}
	c.mu.Lock()
	c.stats.Stores++
	c.mu.Unlock()
	return nil
}
