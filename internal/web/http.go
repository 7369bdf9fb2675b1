package web

import (
	"bytes"
	"errors"
	"io"
	"strconv"
	"sync"
)

// The origin and its clients exchange two messages, each in one Write:
// the request
//
//	GET <path> HTTP/1.1\r\n
//	Host: origin\r\n
//	Connection: close\r\n   (or keep-alive)
//	\r\n
//
// and the response header
//
//	HTTP/1.1 <code> <reason>\r\n
//	Content-Length: <n>\r\n
//	\r\n
//
// then n body bytes. The readers take exactly these bytes and refuse any
// others. Hand-rolling them (rather than net/http) keeps byte-level
// control over when the first body byte leaves the server, which the
// TTFB metric depends on. Each end parses the lines it has read: the
// origin (origin.go) a request with ReadRequest, a client its response
// header with ReadResponse. Each reads a line at a time as a
// bufio.Reader did, a line longer than its read buffer read on, and the
// origin appends its response header to its own write buffer with
// appendResponseHeader.

// Request is a parsed GET.
type Request struct {
	// Path is the origin-relative request path.
	Path string
	// Close reports whether the client asked for Connection: close.
	Close bool
}

// errMalformed refuses bytes that are not the message expected.
var errMalformed = errors.New("web: malformed HTTP message")

// isPath reports whether b is a path the simulator writes: one or more
// bytes of visible ASCII.
func isPath[B []byte | string](b B) bool {
	for i := 0; i < len(b); i++ {
		c := b[i]
		if c <= ' ' || c > '~' {
			return false
		}
	}
	return len(b) > 0
}

// atoi reads b as strconv.AppendInt writes a non-negative number that
// fits in bits: decimal digits, with no sign and no leading zero.
func atoi[B []byte | string](b B, bits int) (int64, bool) {
	if len(b) == 0 || b[0] < '0' || b[0] > '9' || b[0] == '0' && len(b) > 1 {
		return 0, false
	}
	n, err := strconv.ParseInt(string(b), 10, bits)
	return n, err == nil
}

// ReadRequest reads the request WriteRequest writes from the front of
// b. It returns the request and its length in bytes; a length of 0 and
// no error while b holds only the beginning of one, every whole line of
// it what WriteRequest writes; and errMalformed once a whole line is
// not.
func ReadRequest(b []byte) (req Request, n int, err error) {
	var path []byte
	n, err = readLines(b, 4, func(k int, line []byte) (ok bool) {
		switch k {
		case 0:
			var get, proto bool
			path, get = bytes.CutPrefix(line, []byte("GET "))
			path, proto = bytes.CutSuffix(path, []byte(" HTTP/1.1\r\n"))
			return get && proto && isPath(path)
		case 1:
			return string(line) == "Host: origin\r\n"
		case 2:
			req.Close = string(line) == "Connection: close\r\n"
			return req.Close || string(line) == "Connection: keep-alive\r\n"
		}
		return string(line) == "\r\n"
	})
	if n == 0 {
		return Request{}, 0, err
	}
	req.Path = string(path)
	return req, n, nil
}

// readLines reads a message of count lines from the front of b, each
// checked by ok with its index: it returns the message's length; 0 and
// no error while b holds the beginning of one, every whole line of it
// ok; and errMalformed at the first whole line that is not.
func readLines(b []byte, count int, ok func(k int, line []byte) bool) (n int, err error) {
	for k := range count {
		i := bytes.IndexByte(b[n:], '\n')
		if i < 0 {
			return 0, nil
		}
		if !ok(k, b[n:n+i+1]) {
			return 0, errMalformed
		}
		n += i + 1
	}
	return n, nil
}

// WriteRequest emits a GET for path in one Write, framed in a leased
// buffer.
func WriteRequest(w io.Writer, path string, close bool) error {
	conn := "keep-alive"
	if close {
		conn = "close"
	}
	b := requestPool.Get().(*[]byte)
	*b = append(append(append((*b)[:0], "GET "...), path...), " HTTP/1.1\r\nHost: origin\r\nConnection: "...)
	*b = append(append(*b, conn...), "\r\n\r\n"...)
	_, err := w.Write(*b)
	requestPool.Put(b)
	return err
}

// requestPool holds the buffers requests are framed in; every conn a
// request is written to copies it before Write returns.
var requestPool = sync.Pool{New: func() any { return new([]byte) }}

// Response is a parsed response header.
type Response struct {
	// Status is the HTTP status code.
	Status int
	// ContentLength is the declared body size.
	ContentLength int64
}

// reason ends the status line of status: its reason phrase and CRLF.
func reason(status int64) string {
	if status == 404 {
		return "Not Found\r\n"
	}
	return "OK\r\n"
}

// ReadResponse reads the response header appendResponseHeader writes
// from the front of b, as ReadRequest reads a request.
func ReadResponse(b []byte) (resp Response, n int, err error) {
	n, err = readLines(b, 3, func(k int, line []byte) bool {
		switch k {
		case 0:
			line, proto := bytes.CutPrefix(line, []byte("HTTP/1.1 "))
			code, text, _ := bytes.Cut(line, []byte(" "))
			status, ok := atoi(code, 0)
			resp.Status = int(status)
			return proto && ok && string(text) == reason(status)
		case 1:
			length, named := bytes.CutPrefix(line, []byte("Content-Length: "))
			length, ended := bytes.CutSuffix(length, []byte("\r\n"))
			var ok bool
			resp.ContentLength, ok = atoi(length, 64)
			return named && ended && ok
		}
		return string(line) == "\r\n"
	})
	if n == 0 {
		return Response{}, 0, err
	}
	return resp, n, nil
}

// appendResponseHeader appends the status line and headers for a body
// of n bytes to dst.
func appendResponseHeader(dst []byte, status int, n int64) []byte {
	b := strconv.AppendInt(append(dst, "HTTP/1.1 "...), int64(status), 10)
	b = append(append(append(b, ' '), reason(int64(status))...), "Content-Length: "...)
	return append(strconv.AppendInt(b, n, 10), "\r\n\r\n"...)
}

// bodyPattern is a shared 64 KiB block used to synthesize bodies without
// allocating per request: a body goes on in 64 KiB chunks of it.
var bodyPattern = func() []byte {
	b := make([]byte, 64<<10)
	for i := range b {
		b[i] = byte('a' + i%26)
	}
	return b
}()
