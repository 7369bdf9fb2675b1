package web

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
	"unicode"
)

// The origin speaks a deliberately small HTTP/1.1 subset: GET with
// Content-Length responses and connection keep-alive. Hand-rolling it
// (rather than net/http) keeps byte-level control over when the first
// body byte leaves the server, which the TTFB metric depends on.

// Request is a parsed HTTP request line.
type Request struct {
	// Method is the HTTP method (only GET is served).
	Method string
	// Path is the origin-relative request path.
	Path string
	// Close reports whether the client asked for Connection: close.
	Close bool
}

// readLine returns the next line of r with its terminator, valid until
// the next read of r. Only a line longer than r's buffer is copied.
func readLine(r *bufio.Reader) ([]byte, error) {
	line, err := r.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		head := append([]byte(nil), line...)
		line, err = r.ReadBytes('\n')
		line = append(head, line...)
	}
	return line, err
}

// nextField splits the first whitespace-separated field off b.
func nextField(b []byte) (field, rest []byte) {
	b = bytes.TrimLeftFunc(b, unicode.IsSpace)
	if i := bytes.IndexFunc(b, unicode.IsSpace); i >= 0 {
		return b[:i], b[i:]
	}
	return b, nil
}

// headerValue reports the trimmed value of header line h if its name is
// key, compared without case.
func headerValue(h []byte, key string) ([]byte, bool) {
	k, v, ok := bytes.Cut(h, []byte(":"))
	if !ok || !strings.EqualFold(string(bytes.TrimSpace(k)), key) {
		return nil, false
	}
	return bytes.TrimSpace(v), true
}

// ReadRequest parses one request from r.
func ReadRequest(r *bufio.Reader) (Request, error) {
	line, err := readLine(r)
	if err != nil {
		return Request{}, err
	}
	method, rest := nextField(line)
	path, rest := nextField(rest)
	proto, rest := nextField(rest)
	if extra, _ := nextField(rest); len(proto) == 0 || len(extra) != 0 || !bytes.HasPrefix(proto, []byte("HTTP/1.")) {
		return Request{}, fmt.Errorf("web: malformed request line %q", bytes.TrimSpace(line))
	}
	req := Request{Method: "GET", Path: string(path)}
	if string(method) != req.Method {
		req.Method = string(method)
	}
	for {
		h, err := readLine(r)
		if err != nil {
			return Request{}, err
		}
		if len(bytes.TrimSpace(h)) == 0 {
			return req, nil
		}
		if v, ok := headerValue(h, "Connection"); ok && strings.EqualFold(string(v), "close") {
			req.Close = true
		}
	}
}

// WriteRequest emits a GET for path in one Write of the bytes
// "GET %s HTTP/1.1\r\nHost: origin\r\nConnection: %s\r\n\r\n" formats,
// framed in a leased buffer.
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
	// ContentLength is the declared body size, -1 when none was.
	ContentLength int64
}

// ReadResponse parses status line and headers; the body remains on r.
// ContentLength is -1 when the header is absent; a negative or
// non-numeric one is a malformed header.
func ReadResponse(r *bufio.Reader) (Response, error) {
	line, err := readLine(r)
	if err != nil {
		return Response{}, err
	}
	proto, rest, ok := bytes.Cut(bytes.TrimSpace(line), []byte(" "))
	if !ok || !bytes.HasPrefix(proto, []byte("HTTP/1.")) {
		return Response{}, fmt.Errorf("web: malformed status line %q", bytes.TrimSpace(line))
	}
	code, _, _ := bytes.Cut(rest, []byte(" "))
	status, err := strconv.Atoi(string(code))
	if err != nil {
		return Response{}, fmt.Errorf("web: bad status %q", code)
	}
	resp := Response{Status: status, ContentLength: -1}
	for {
		h, err := readLine(r)
		if err != nil {
			return Response{}, err
		}
		if len(bytes.TrimSpace(h)) == 0 {
			return resp, nil
		}
		if v, ok := headerValue(h, "Content-Length"); ok {
			n, err := strconv.ParseInt(string(v), 10, 64)
			if err != nil || n < 0 {
				return Response{}, fmt.Errorf("web: bad content-length %q", v)
			}
			resp.ContentLength = n
		}
	}
}

// writeResponseHeader emits the status line and headers for a body of n
// bytes in one Write of the bytes
// "HTTP/1.1 %d %s\r\nContent-Length: %d\r\n\r\n" formats, appended in
// w's own free space.
func writeResponseHeader(w *bufio.Writer, status int, n int64) error {
	text := "OK"
	if status == 404 {
		text = "Not Found"
	}
	b := strconv.AppendInt(append(w.AvailableBuffer(), "HTTP/1.1 "...), int64(status), 10)
	b = append(append(append(b, ' '), text...), "\r\nContent-Length: "...)
	_, err := w.Write(append(strconv.AppendInt(b, n, 10), "\r\n\r\n"...))
	return err
}

// bodyPattern is a shared 64 KiB block used to synthesize bodies without
// allocating per request.
var bodyPattern = func() []byte {
	b := make([]byte, 64<<10)
	for i := range b {
		b[i] = byte('a' + i%26)
	}
	return b
}()

// writeBody streams n pattern bytes after the given prefix.
func writeBody(w io.Writer, prefix []byte, n int) error {
	if len(prefix) > n {
		prefix = prefix[:n]
	}
	if len(prefix) > 0 {
		if _, err := w.Write(prefix); err != nil {
			return err
		}
		n -= len(prefix)
	}
	for n > 0 {
		chunk := bodyPattern
		if n < len(chunk) {
			chunk = chunk[:n]
		}
		if _, err := w.Write(chunk); err != nil {
			return err
		}
		n -= len(chunk)
	}
	return nil
}
