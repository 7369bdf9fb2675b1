package web

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// The string-based parsers the decoders replaced, kept as the reference
// the fuzz targets hold them to (refReadResponse with the one rule added
// since: a negative Content-Length is malformed). The references read a
// wider grammar than the writers write: fmt's spaces and signs, headers
// in any case and order. A decoder reads only its writer's bytes, so the
// targets check one direction: whatever a decoder accepts, its reference
// accepts too, with the same value and the same bytes left unread.

func refReadRequest(r *bufio.Reader) (*Request, error) {
	line, err := r.ReadString('\n')
	if err != nil {
		return nil, err
	}
	parts := strings.Fields(strings.TrimSpace(line))
	if len(parts) != 3 || !strings.HasPrefix(parts[2], "HTTP/1.") {
		return nil, fmt.Errorf("web: malformed request line %q", strings.TrimSpace(line))
	}
	req := &Request{Path: parts[1]}
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

func refReadResponse(r *bufio.Reader) (*Response, error) {
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
				if err != nil || n < 0 {
					return nil, fmt.Errorf("web: bad content-length %q", v)
				}
				resp.ContentLength = n
			}
		}
	}
}

func refParseManifest(body []byte) (base float64, res []Resource, ok bool) {
	lines := strings.Split(string(body), "\n")
	if len(lines) == 0 || !strings.HasPrefix(lines[0], "ptperf-page ") {
		return 0, nil, false
	}
	var nres, basePPM int
	if _, err := fmt.Sscanf(lines[0], "ptperf-page resources=%d base-weight-ppm=%d", &nres, &basePPM); err != nil {
		return 0, nil, false
	}
	if nres+1 > len(lines) {
		return 0, nil, false
	}
	for i := 1; i <= nres; i++ {
		var r Resource
		var ppm int
		if _, err := fmt.Sscanf(lines[i], "%s %d %d", &r.Path, &r.Bytes, &ppm); err != nil {
			return 0, nil, false
		}
		r.VisualWeight = float64(ppm) / 1e6
		res = append(res, r)
	}
	return float64(basePPM) / 1e6, res, true
}

// readers returns two readers over data: the default size, and the
// smallest bufio allows, which every line of a real header overflows.
func readers(data []byte) [2]*bufio.Reader {
	return [2]*bufio.Reader{bufio.NewReader(bytes.NewReader(data)), bufio.NewReaderSize(bytes.NewReader(data), 16)}
}

// sameParse fails the test if a parse that succeeded is one the
// reference refused, read to another value, or left other bytes unread.
func sameParse(t *testing.T, got, want any, gerr, werr error, gr, wr *bufio.Reader) {
	t.Helper()
	if gerr != nil {
		return
	}
	if werr != nil {
		t.Fatalf("parsed %+v, reference refused: %v", got, werr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("parsed %+v, reference %+v", got, want)
	}
	grest, _ := io.ReadAll(gr)
	wrest, _ := io.ReadAll(wr)
	if !bytes.Equal(grest, wrest) {
		t.Fatalf("left %q unread, reference %q", grest, wrest)
	}
}

// isRequestPrefix reports whether b is a strict prefix of a request
// WriteRequest writes.
func isRequestPrefix(b []byte) bool {
	line, _, _ := bytes.Cut(b, []byte("\r\n"))
	path := strings.TrimSuffix(strings.TrimPrefix(string(line), "GET "), " HTTP/1.1")
	for _, close := range []bool{true, false} {
		var req bytes.Buffer
		WriteRequest(&req, path, close)
		if len(b) < req.Len() && bytes.HasPrefix(req.Bytes(), b) && (len(b) == 0 || isPath([]byte(path))) {
			return true
		}
	}
	return false
}

// FuzzReadRequest holds the origin's parser, which reads from the bytes
// it has, to the reference, which reads from a bufio.Reader: a request
// it reads the reference reads too, and where it waits for more bytes,
// the reference finds none it could end a request with and the whole
// lines it has are the beginning of a request.
func FuzzReadRequest(f *testing.F) {
	f.Add([]byte("GET /site/tranco/3 HTTP/1.1\r\nHost: origin\r\nConnection: close\r\n\r\n"))
	f.Add([]byte("GET /res/tranco/3/1 HTTP/1.1\r\nHost: origin\r\nconnection :  CLOSE \r\n\r\nGET"))
	f.Add([]byte("GET  /x\tHTTP/1.0\n\n"))
	f.Add([]byte("GET /x HTTP/1.1 extra\r\n\r\n"))
	f.Add([]byte("\n"))
	f.Add([]byte("GET /" + strings.Repeat("a", 5000) + " HTTP/1.1\r\n\r\n"))
	f.Add([]byte("GET /file/10?from=2 HTTP/1.1\r\nHost: origin\r\nConnection: keep-alive\r\n\r\nGET /x HTTP/1.1\r\n"))
	f.Add([]byte("GET /file/10 HTTP/1.1\r\nHost: origin\r\nConnection: close\r\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		got, n, gerr := ReadRequest(data)
		if whole := data[:bytes.LastIndexByte(data, '\n')+1]; n == 0 && gerr == nil && !isRequestPrefix(whole) {
			t.Fatalf("waits for more bytes after %q, which no request begins with", whole)
		}
		for _, w := range readers(data) {
			want, werr := refReadRequest(w)
			if n == 0 && gerr == nil {
				if werr == nil {
					t.Fatalf("waits for more bytes, reference read %+v", *want)
				}
				continue
			}
			if want == nil {
				want = &Request{}
			}
			sameParse(t, got, *want, gerr, werr, bufio.NewReader(bytes.NewReader(data[n:])), w)
		}
	})
}

// FuzzReadResponse holds the client's parser, which reads from the
// bytes it has, to the reference, which reads from a bufio.Reader, as
// FuzzReadRequest does the origin's.
func FuzzReadResponse(f *testing.F) {
	f.Add([]byte("HTTP/1.1 200 OK\r\nContent-Length: 1234\r\n\r\nbody"))
	f.Add([]byte("HTTP/1.1 404 Not Found\r\nServer: x\r\n\r\n"))
	f.Add([]byte("HTTP/1.1 200 OK\r\nContent-Length: -7\r\n\r\n"))
	f.Add([]byte("HTTP/1.1 200 OK\r\ncontent-length : 99999999999999999999\r\n\r\n"))
	f.Add([]byte("HTTP/1.1 200\nContent-Length:7\n\n"))
	f.Add([]byte("HTTP/1.1  200 OK\r\n\r\n"))
	f.Add([]byte("\n"))
	f.Add([]byte("HTTP/1.1 404 Not Found\r\nContent-Length: 0\r\n\r\nHTTP/1.1 200 OK\r\n"))
	f.Add([]byte("HTTP/1.1 200 OK\r\nContent-Length: 12"))
	f.Fuzz(func(t *testing.T, data []byte) {
		got, n, gerr := ReadResponse(data)
		for _, w := range readers(data) {
			want, werr := refReadResponse(w)
			if n == 0 && gerr == nil {
				if werr == nil {
					t.Fatalf("waits for more bytes, reference read %+v", *want)
				}
				continue
			}
			if want == nil {
				want = &Response{}
			}
			sameParse(t, got, *want, gerr, werr, bufio.NewReader(bytes.NewReader(data[n:])), w)
		}
	})
}

func FuzzParseManifest(f *testing.F) {
	f.Add(BuildManifest(&Site{BaseVisualWeight: 0.25, Resources: []Resource{
		{Path: "/res/tranco/0/0", Bytes: 1200, VisualWeight: 0.5}, {Path: "/res/tranco/0/1", Bytes: 32, VisualWeight: 0.25}}}))
	f.Add([]byte("ptperf-page resources=2 base-weight-ppm=10\n/a 1 2\n/b 3\n"))    // a short line
	f.Add([]byte("ptperf-page resources=3 base-weight-ppm=10\n/a 1 2\n/b 3 4"))    // fewer lines than declared
	f.Add([]byte("ptperf-page resources=0 base-weight-ppm=10"))                    // no newline at all
	f.Add([]byte("ptperf-page resources=-1 base-weight-ppm=10\nfiller"))           // a negative count
	f.Add([]byte("ptperf-page resources=9223372036854775807 base-weight-ppm=1\n")) // the reference indexes past its lines
	f.Add([]byte("\n"))
	// fmt's corners: Unicode spaces, signs, trailing text, a CR, and
	// invalid UTF-8 in a path.
	f.Add([]byte("ptperf-page \u00a0resources=+3 base-weight-ppm= -7x\n\xff/a\u2003 +1\t2 junk\n\xe2\x82/b 3 4\r\n /c\u3000-0 0009\n"))
	f.Add(append(BuildManifest(&GenerateCatalog(CBL, 1, 5, 1).Sites[0]), "filler"...))
	f.Fuzz(func(t *testing.T, body []byte) {
		base, res, ok := ParseManifest(body)
		if !ok {
			return
		}
		// ParseManifest accepts no count its lines cannot back, so the
		// reference never indexes past them.
		wbase, wres, wok := refParseManifest(body)
		if !wok || base != wbase || !reflect.DeepEqual(res, wres) {
			t.Fatalf("parsed (%v, %+v), reference (%v, %+v, %v)", base, res, wbase, wres, wok)
		}
	})
}
