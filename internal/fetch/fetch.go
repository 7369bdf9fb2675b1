// Package fetch implements the client side of PTPerf's measurements: a
// curl-like single-resource fetcher with TTFB capture, a selenium-like
// browser emulator that loads a page's sub-resources over parallel
// connections, and a browsertime-like speed-index integrator.
//
// All timing is reported in virtual durations from the netem clock, so
// results are directly comparable to the paper's seconds.
package fetch

import (
	"bufio"
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

	// TTFB: time of the first byte of the response.
	br := leaseReader(&firstByteReader{
		r: conn,
		onFirst: func() {
			res.TTFB = c.Net.Since(start)
		},
	})
	defer releaseReader(br)
	resp, err := web.ReadResponse(br)
	if err != nil {
		res.Err = err
		res.Total = c.Net.Since(start)
		return res
	}
	res.Status = resp.Status
	res.BytesWanted = resp.ContentLength

	var keep *[]byte
	if keepBody {
		// No declared length, no body: nothing to make room for.
		res.Body = make([]byte, 0, min(max(resp.ContentLength, 0), 1<<20))
		keep = &res.Body
	}
	res.BytesGot, err = copyBody(keep, br, conn, resp.ContentLength)
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
		if leg.Err == nil && leg.Status == 200 && leg.BytesWanted >= 0 && leg.BytesGot >= leg.BytesWanted {
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
func fetchOn(conn netem.Stream, br *bufio.Reader, path string) (int64, error) {
	if err := web.WriteRequest(conn, path, false); err != nil {
		return 0, err
	}
	resp, err := web.ReadResponse(br)
	if err != nil {
		return 0, err
	}
	if resp.Status != 200 {
		return 0, fmt.Errorf("fetch: status %d for %s", resp.Status, path)
	}
	got, err := copyBody(nil, br, conn, resp.ContentLength)
	if err == nil && got < resp.ContentLength {
		err = io.ErrUnexpectedEOF
	}
	return got, err
}

// bodyChunk sizes the threshold reads of copyBody.
const bodyChunk = 64 << 10

// readerSize is the buffer of a response reader: curl's and a browser
// worker's alike.
const readerSize = 32 << 10

// A transfer leases its buffers: the bufio.Reader for the length of one
// Get or one browser worker conn, the threshold-read chunk for the
// length of one copyBody (DESIGN.md "Buffer ownership").
var (
	readerPool = sync.Pool{New: func() any { return bufio.NewReaderSize(nil, readerSize) }}
	chunkPool  = sync.Pool{New: func() any { return new([bodyChunk]byte) }}
)

func leaseReader(r io.Reader) *bufio.Reader {
	br := readerPool.Get().(*bufio.Reader)
	br.Reset(r)
	return br
}

func releaseReader(br *bufio.Reader) {
	br.Reset(nil)
	readerPool.Put(br)
}

// copyBody drains a response body of n bytes, appending it to *keep
// when keep is non-nil, and returns the count received: whatever
// ReadResponse left buffered in br first, then the remainder from conn.
// When conn supports threshold reads, the bulk is pulled in large chunks
// so the reader parks once per chunk instead of once per arriving cell;
// the last byte is still consumed at its arrival instant, so TTLB and
// timeout behavior match an eager copy exactly. Otherwise each read
// fills br's own buffer. Early end-of-stream returns a short count with
// nil error; callers detect the short body from the count. A negative n
// (no declared length) reads nothing.
func copyBody(keep *[]byte, br *bufio.Reader, conn netem.Stream, n int64) (int64, error) {
	fr, threshold := conn.(netem.FullReader)
	var chunk *[bodyChunk]byte
	if threshold {
		chunk = chunkPool.Get().(*[bodyChunk]byte)
		defer chunkPool.Put(chunk)
	}
	var got int64
	for got < n {
		var p []byte
		var err error
		switch {
		case br.Buffered() > 0:
			p, _ = br.Peek(int(min(int64(br.Buffered()), n-got)))
			br.Discard(len(p))
		case threshold:
			var m int
			m, err = fr.ReadFull(chunk[:min(n-got, bodyChunk)])
			p = chunk[:m]
		default:
			// One read of the conn into br's buffer, handed out by the
			// next turn of the loop.
			_, err = br.Peek(1)
		}
		got += int64(len(p))
		if keep != nil {
			*keep = append(*keep, p...)
		}
		if err != nil {
			if err == io.EOF {
				err = nil
			}
			return got, err
		}
	}
	return got, nil
}

// firstByteReader invokes onFirst once, at the first successful read.
type firstByteReader struct {
	r       io.Reader
	onFirst func()
	fired   bool
}

func (f *firstByteReader) Read(p []byte) (int, error) {
	n, err := f.r.Read(p)
	if n > 0 && !f.fired {
		f.fired = true
		if f.onFirst != nil {
			f.onFirst()
		}
	}
	return n, err
}
