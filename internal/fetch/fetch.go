// Package fetch implements the client side of PTPerf's measurements: a
// curl-like single-resource fetcher with TTFB capture, a selenium-like
// browser emulator that loads a page's sub-resources over parallel
// connections, and a browsertime-like speed-index integrator.
//
// All timing is reported in virtual durations from the netem clock, so
// results are directly comparable to the paper's seconds.
package fetch

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"ptperf/internal/netem"
	"ptperf/internal/web"
)

// Dialer opens a connection to an origin ("host:port"). Measurements
// plug a direct dialer, a Tor client's Dial, or a PT dialer here.
type Dialer func(target string) (net.Conn, error)

// DefaultTimeout mirrors the paper's 120 s page-load timeout.
const DefaultTimeout = 120 * time.Second

// FileTimeout mirrors the paper's 1200 s bulk-download timeout.
const FileTimeout = 1200 * time.Second

// Client issues measured requests.
type Client struct {
	// Net supplies the virtual clock.
	Net *netem.Network
	// Dial opens connections to the origin.
	Dial Dialer
	// Timeout bounds one request in virtual time (DefaultTimeout if 0).
	Timeout time.Duration
}

// Result is the outcome of one measured transfer.
type Result struct {
	// Status is the HTTP status (0 if none was received).
	Status int
	// TTFB is the virtual time from request start to the first response
	// byte.
	TTFB time.Duration
	// Total is the virtual time from request start to completion or
	// failure.
	Total time.Duration
	// BytesWanted is the declared content length (-1 if unknown).
	BytesWanted int64
	// BytesGot counts body bytes actually received.
	BytesGot int64
	// Body holds the body when capture was requested.
	Body []byte
	// Resumes counts extra transfer legs used by a resumed download
	// (zero for plain Gets).
	Resumes int
	// Err is the transport error, if any.
	Err error
}

// Complete reports whether the full declared body arrived.
func (r Result) Complete() bool {
	return r.Err == nil && r.Status == 200 && r.BytesWanted >= 0 && r.BytesGot >= r.BytesWanted
}

// Failed reports whether nothing at all was downloaded.
func (r Result) Failed() bool { return r.BytesGot == 0 && !r.Complete() }

// Fraction is the downloaded share of the declared size in [0,1].
func (r Result) Fraction() float64 {
	if r.BytesWanted <= 0 {
		if r.Complete() {
			return 1
		}
		return 0
	}
	f := float64(r.BytesGot) / float64(r.BytesWanted)
	if f > 1 {
		f = 1
	}
	return f
}

func (c *Client) timeout() time.Duration {
	if c.Timeout > 0 {
		return c.Timeout
	}
	return DefaultTimeout
}

// Get fetches origin+path once over a fresh connection (Connection:
// close), like the paper's curl invocation. keepBody captures the body
// for manifest parsing.
func (c *Client) Get(origin, path string, keepBody bool) Result {
	start := c.Net.Now()
	return c.get(origin, path, keepBody, start, start+c.timeout())
}

// dial opens a conn to origin. Every conn a world dials is a
// netem.Stream; Dialer returns a net.Conn because the benchmark builds a
// Client from a function of that type.
func (c *Client) dial(origin string) (netem.Stream, error) {
	conn, err := c.Dial(origin)
	if err != nil {
		return nil, err
	}
	return conn.(netem.Stream), nil
}

// get is Get with the transfer's start mark and the virtual instant its
// reads time out supplied by the caller, so a resumed download's legs
// share one budget.
func (c *Client) get(origin, path string, keepBody bool, start, deadline time.Duration) Result {
	res := Result{BytesWanted: -1}

	conn, err := c.dial(origin)
	if err != nil {
		res.Err = err
		res.Total = c.Net.Since(start)
		return res
	}
	defer conn.Close()
	conn.SetReadTimeout(deadline - c.Net.Now())

	if err := web.WriteRequest(conn, path, true); err != nil {
		res.Err = err
		res.Total = c.Net.Since(start)
		return res
	}

	rd := newReader(c.Net.Clock(), conn)
	defer rd.release()
	resp, err := rd.readResponse()
	if rd.first >= 0 {
		res.TTFB = rd.first - start // the first byte of the response
	}
	if err != nil {
		res.Err = err
		res.Total = c.Net.Since(start)
		return res
	}
	res.Status = resp.Status
	res.BytesWanted = resp.ContentLength

	var keep *[]byte
	if keepBody {
		res.Body = make([]byte, 0, min(resp.ContentLength, 1<<20))
		keep = &res.Body
	}
	res.BytesGot, err = copyBody(keep, rd, resp.ContentLength)
	if err == nil && res.BytesGot < resp.ContentLength {
		err = io.ErrUnexpectedEOF
	}
	res.Err = err
	res.Total = c.Net.Since(start)
	return res
}

// DownloadFile fetches a bulk file of sizeBytes from the origin's file
// host, reporting completeness for the reliability analysis (§4.6).
func (c *Client) DownloadFile(origin string, sizeBytes int) Result {
	return c.Get(origin, web.FilePath(sizeBytes), false)
}

// DownloadFileResumed is DownloadFile with mid-transfer recovery: when
// a leg dies partway (a crashed relay, a flapped link), it re-dials —
// through the same Dialer, which for Tor clients means a fresh circuit —
// and requests the remainder via the origin's ?from= offset, up to
// maxResumes extra legs, all under one shared timeout. The aggregate
// Result keeps the first leg's TTFB and Status, sums BytesGot across
// legs, and counts the extra legs in Resumes.
func (c *Client) DownloadFileResumed(origin string, sizeBytes, maxResumes int) Result {
	start := c.Net.Now()
	deadline := start + c.timeout()
	out := Result{BytesWanted: int64(sizeBytes)}
	for {
		path := web.FilePath(sizeBytes)
		if out.BytesGot > 0 {
			path = fmt.Sprintf("%s?from=%d", path, out.BytesGot)
		}
		leg := c.get(origin, path, false, start, deadline)
		if out.TTFB == 0 {
			out.TTFB = leg.TTFB
		}
		if out.Status == 0 {
			out.Status = leg.Status
		}
		out.BytesGot += leg.BytesGot
		out.Err = leg.Err
		out.Total = c.Net.Since(start)
		if leg.Err == nil && leg.Status == 200 && leg.BytesGot >= leg.BytesWanted {
			return out // this leg delivered the remainder
		}
		if out.Resumes >= maxResumes || c.Net.Since(start) >= c.timeout() {
			return out
		}
		out.Resumes++
	}
}

// fetchOn issues one keep-alive GET over an existing connection,
// returning body bytes received. Used by the browser's worker conns.
func fetchOn(rd *reader, path string) (int64, error) {
	if err := web.WriteRequest(rd.conn, path, false); err != nil {
		return 0, err
	}
	resp, err := rd.readResponse()
	if err != nil {
		return 0, err
	}
	if resp.Status != 200 {
		return 0, fmt.Errorf("fetch: status %d for %s", resp.Status, path)
	}
	got, err := copyBody(nil, rd, resp.ContentLength)
	if err == nil && got < resp.ContentLength {
		err = io.ErrUnexpectedEOF
	}
	return got, err
}

// bodyChunk sizes the threshold reads of copyBody, and the array.
const bodyChunk = 64 << 10

// readerSize is the part of the array a response reader's header reads
// and plain fills use: curl's and a browser worker's alike.
const readerSize = 32 << 10

// A transfer leases its buffers: the reader for the length of one Get or
// one browser worker conn, its array only while bytes are in it or a
// threshold read is filling it (DESIGN.md "Buffer ownership").
var (
	readerPool = sync.Pool{New: func() any {
		r := &reader{head: make([]byte, 0, 64)} // room for a whole header
		r.startFn = func(done func(int, error)) (int, error, bool) { r.done = done; return r.read() }
		r.againFn = func() { // where a parked read would have been woken
			if n, err, ok := r.read(); ok {
				r.done(n, err)
			}
		}
		return r
	}}
	arrayPool = sync.Pool{New: func() any { return new([bodyChunk]byte) }}
)

// reader reads a conn's responses as a bufio.Reader of readerSize did:
// the header a line at a time, and each read into the rest of the array
// once the unread bytes are slid to its front. Where a read would park
// it awaits the conn's ReadEvent (netem.Await), which reads nothing
// there, so the array goes back meanwhile unless bytes are in it. A
// body's threshold requests await ReadFullEvent into the array's front,
// and keep it while they wait: the bytes still to come land in it.
type reader struct {
	clock *netem.Clock
	conn  netem.Stream
	buf   []byte // buf[r:w] is read and not yet taken; nil unless leased
	r, w  int
	want  int           // the threshold request under way fills buf[:want]
	err   error         // the last read's error, kept until its bytes are taken
	head  []byte        // the header's lines read so far
	first time.Duration // when the first byte came, -1 before
	// startFn starts fill's read and againFn reads on, each bound once;
	// done is the continuation of the Await under way.
	startFn func(func(int, error)) (int, error, bool)
	againFn func()
	done    func(int, error)
}

func newReader(clock *netem.Clock, conn netem.Stream) *reader {
	r := readerPool.Get().(*reader)
	r.clock, r.conn, r.first = clock, conn, -1
	return r
}

// release gives the reader and its array back.
func (r *reader) release() {
	r.r = r.w
	r.drop()
	r.clock, r.conn, r.err, r.done = nil, nil, nil, nil
	readerPool.Put(r)
}

// drop gives the array back if every byte in it is taken.
func (r *reader) drop() {
	if r.buf != nil && r.r == r.w {
		arrayPool.Put((*[bodyChunk]byte)(r.buf[:bodyChunk]))
		r.buf, r.r, r.w = nil, 0, 0
	}
}

// fill slides buf[r:w] to the front, reads once into the rest (up to
// want, for a threshold request) and keeps the read's error.
func (r *reader) fill() {
	r.w, r.r = copy(r.buf, r.buf[r.r:r.w]), 0
	n, err := netem.Await(r.clock, r.startFn)
	if n > 0 && r.first < 0 {
		r.first = r.clock.Now()
	}
	r.w, r.err = r.w+n, err
}

// read is one ReadEvent into buf[w:], leasing the array if need be; a
// read that waits has read nothing. For a threshold request it is a
// ReadFullEvent into buf[w:want], whose wait counts what it took in w.
func (r *reader) read() (int, error, bool) {
	if r.buf == nil {
		r.buf = arrayPool.Get().(*[bodyChunk]byte)[:readerSize]
	}
	if r.want > 0 {
		n, err, ok := r.conn.ReadFullEvent(r.buf[r.w:r.want], r.againFn)
		if !ok {
			r.w += n
		}
		return n, err, ok
	}
	n, err, ok := r.conn.ReadEvent(r.buf[r.w:], r.againFn)
	if !ok {
		r.drop()
	}
	return n, err, ok
}

// readResponse reads a response header as ReadSlice read it from a
// bufio.Reader: a line is looked for in what was read, and only when
// none is there is a kept error returned, or else the array refilled. A
// line longer than the array is read on.
func (r *reader) readResponse() (web.Response, error) {
	r.head = r.head[:0]
	for {
		if i := bytes.IndexByte(r.buf[r.r:r.w], '\n'); i >= 0 {
			r.head = append(r.head, r.buf[r.r:r.r+i+1]...)
			r.r += i + 1
			if resp, n, err := web.ReadResponse(r.head); err != nil || n > 0 {
				return resp, err
			}
		} else if err := r.err; err != nil {
			r.err = nil
			return web.Response{}, err
		} else {
			if r.w-r.r == readerSize {
				r.head = append(r.head, r.buf[r.r:r.w]...)
				r.r = r.w
			}
			r.fill()
		}
	}
}

// copyBody drains a response body of n bytes, appending it to *keep
// when keep is non-nil, and returns the count received: whatever
// readResponse left in rd first, then the rest from its conn in
// threshold requests, each one wait, not one per cell or record; the
// last byte is still taken at its arrival instant, so TTLB and timeouts
// match an eager copy. Early end-of-stream returns a short count with
// nil error; callers detect the short body from the count.
func copyBody(keep *[]byte, rd *reader, n int64) (int64, error) {
	var got int64
	var err error
	for got < n && err == nil {
		switch {
		case rd.w > rd.r:
			p := rd.buf[rd.r : rd.r+int(min(int64(rd.w-rd.r), n-got))]
			rd.r += len(p)
			got += int64(len(p))
			if keep != nil {
				*keep = append(*keep, p...)
			}
		case rd.err != nil:
			err, rd.err = rd.err, nil
		default:
			rd.want = int(min(n-got, bodyChunk))
			rd.fill() // handed out by the next turn of the loop
			rd.want = 0
		}
	}
	rd.drop()
	if err == io.EOF {
		err = nil
	}
	return got, err
}
