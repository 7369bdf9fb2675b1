package web

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
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

// ReadRequest parses one request from r.
func ReadRequest(r *bufio.Reader) (*Request, error) {
	line, err := r.ReadString('\n')
	if err != nil {
		return nil, err
	}
	parts := strings.Fields(strings.TrimSpace(line))
	if len(parts) != 3 || !strings.HasPrefix(parts[2], "HTTP/1.") {
		return nil, fmt.Errorf("web: malformed request line %q", strings.TrimSpace(line))
	}
	req := &Request{Method: parts[0], Path: parts[1]}
	for {
		h, err := r.ReadString('\n')
		if err != nil {
			return nil, err
		}
		h = strings.TrimSpace(h)
		if h == "" {
			return req, nil
		}
		if k, v, ok := strings.Cut(h, ":"); ok {
			if strings.EqualFold(strings.TrimSpace(k), "Connection") &&
				strings.EqualFold(strings.TrimSpace(v), "close") {
				req.Close = true
			}
		}
	}
}

// WriteRequest emits a GET for path.
func WriteRequest(w io.Writer, path string, close bool) error {
	conn := "keep-alive"
	if close {
		conn = "close"
	}
	_, err := fmt.Fprintf(w, "GET %s HTTP/1.1\r\nHost: origin\r\nConnection: %s\r\n\r\n", path, conn)
	return err
}

// Response is a parsed response header.
type Response struct {
	// Status is the HTTP status code.
	Status int
	// ContentLength is the declared body size.
	ContentLength int64
}

// ReadResponse parses status line and headers; the body remains on r.
func ReadResponse(r *bufio.Reader) (*Response, error) {
	line, err := r.ReadString('\n')
	if err != nil {
		return nil, err
	}
	parts := strings.SplitN(strings.TrimSpace(line), " ", 3)
	if len(parts) < 2 || !strings.HasPrefix(parts[0], "HTTP/1.") {
		return nil, fmt.Errorf("web: malformed status line %q", strings.TrimSpace(line))
	}
	status, err := strconv.Atoi(parts[1])
	if err != nil {
		return nil, fmt.Errorf("web: bad status %q", parts[1])
	}
	resp := &Response{Status: status, ContentLength: -1}
	for {
		h, err := r.ReadString('\n')
		if err != nil {
			return nil, err
		}
		h = strings.TrimSpace(h)
		if h == "" {
			return resp, nil
		}
		if k, v, ok := strings.Cut(h, ":"); ok {
			if strings.EqualFold(strings.TrimSpace(k), "Content-Length") {
				n, err := strconv.ParseInt(strings.TrimSpace(v), 10, 64)
				if err != nil {
					return nil, fmt.Errorf("web: bad content-length %q", v)
				}
				resp.ContentLength = n
			}
		}
	}
}

// writeResponseHeader emits the status line and headers for a body of n
// bytes.
func writeResponseHeader(w io.Writer, status int, n int64) error {
	text := "OK"
	if status == 404 {
		text = "Not Found"
	}
	_, err := fmt.Fprintf(w, "HTTP/1.1 %d %s\r\nContent-Length: %d\r\n\r\n", status, text, n)
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
