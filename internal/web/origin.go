package web

import (
	"bufio"
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"unicode/utf8"

	"ptperf/internal/netem"
)

// Origin serves the catalogs and bulk files over the minimal HTTP/1.1
// subset. One origin stands in for the paper's "uncensored Internet".
type Origin struct {
	catalogs map[List]*Catalog
	addr     string
}

// StartOrigin launches the origin on host:port.
func StartOrigin(host *netem.Host, port int, catalogs ...*Catalog) (*Origin, error) {
	ln, err := host.Listen(port)
	if err != nil {
		return nil, err
	}
	o := &Origin{
		catalogs: make(map[List]*Catalog),
		addr:     fmt.Sprintf("%s:%d", host.Name(), port),
	}
	for _, c := range catalogs {
		o.catalogs[c.List] = c
	}
	ln.Serve(o.serveConn)
	return o, nil
}

// Addr returns the origin's "host:port".
func (o *Origin) Addr() string { return o.addr }

// A served conn leases its reader and writer for as long as it is open
// (DESIGN.md "Buffer ownership").
var (
	readerPool = sync.Pool{New: func() any { return bufio.NewReaderSize(nil, 4<<10) }}
	writerPool = sync.Pool{New: func() any { return bufio.NewWriterSize(nil, 32<<10) }}
)

func (o *Origin) serveConn(conn *netem.Conn) {
	defer conn.Close()
	r := readerPool.Get().(*bufio.Reader)
	w := writerPool.Get().(*bufio.Writer)
	r.Reset(conn)
	w.Reset(conn)
	defer func() {
		r.Reset(nil)
		w.Reset(nil)
		readerPool.Put(r)
		writerPool.Put(w)
	}()
	for {
		req, err := ReadRequest(r)
		if err != nil {
			return
		}
		if err := o.serveRequest(w, req); err != nil {
			return
		}
		if err := w.Flush(); err != nil {
			return
		}
		if req.Close {
			return
		}
	}
}

// serveRequest routes one GET.
func (o *Origin) serveRequest(w *bufio.Writer, req Request) error {
	if req.Method != "GET" {
		return writeResponseHeader(w, 404, 0)
	}
	switch {
	case strings.HasPrefix(req.Path, "/site/"):
		return o.servePage(w, req.Path)
	case strings.HasPrefix(req.Path, "/res/"):
		return o.serveResource(w, req.Path)
	case strings.HasPrefix(req.Path, "/file/"):
		return o.serveFile(w, req.Path)
	default:
		return writeResponseHeader(w, 404, 0)
	}
}

// lookupSite resolves "/site/<list>/<id>" or "/res/<list>/<id>/<k>".
func (o *Origin) lookupSite(list, id string) *Site {
	cat := o.catalogs[List(list)]
	if cat == nil {
		return nil
	}
	n, err := strconv.Atoi(id)
	if err != nil || n < 0 || n >= len(cat.Sites) {
		return nil
	}
	return &cat.Sites[n]
}

// servePage writes the default document. Its body begins with a resource
// manifest — the simulation's stand-in for HTML references — followed by
// filler up to the page size:
//
//	ptperf-page resources=<n>
//	<path> <bytes> <weight-ppm>
//	...
func (o *Origin) servePage(w *bufio.Writer, path string) error {
	parts := strings.Split(strings.TrimPrefix(path, "/site/"), "/")
	if len(parts) != 2 {
		return writeResponseHeader(w, 404, 0)
	}
	site := o.lookupSite(parts[0], parts[1])
	if site == nil {
		return writeResponseHeader(w, 404, 0)
	}
	manifest := BuildManifest(site)
	n := site.PageBytes
	if len(manifest) > n {
		n = len(manifest)
	}
	if err := writeResponseHeader(w, 200, int64(n)); err != nil {
		return err
	}
	return writeBody(w, manifest, n)
}

func (o *Origin) serveResource(w *bufio.Writer, path string) error {
	parts := strings.Split(strings.TrimPrefix(path, "/res/"), "/")
	if len(parts) != 3 {
		return writeResponseHeader(w, 404, 0)
	}
	site := o.lookupSite(parts[0], parts[1])
	if site == nil {
		return writeResponseHeader(w, 404, 0)
	}
	k, err := strconv.Atoi(parts[2])
	if err != nil || k < 0 || k >= len(site.Resources) {
		return writeResponseHeader(w, 404, 0)
	}
	res := site.Resources[k]
	if err := writeResponseHeader(w, 200, int64(res.Bytes)); err != nil {
		return err
	}
	return writeBody(w, nil, res.Bytes)
}

// serveFile serves "/file/<n>" (n pattern bytes) or "/file/<n>?from=<off>"
// (the remainder from byte off — the resume form clients use to finish a
// download interrupted by a mid-circuit failure).
func (o *Origin) serveFile(w *bufio.Writer, path string) error {
	spec, query, _ := strings.Cut(strings.TrimPrefix(path, "/file/"), "?")
	n, err := strconv.Atoi(spec)
	if err != nil || n < 0 || int64(n) > 1<<31 {
		return writeResponseHeader(w, 404, 0)
	}
	from := 0
	if query != "" {
		v, ok := strings.CutPrefix(query, "from=")
		if !ok {
			return writeResponseHeader(w, 404, 0)
		}
		from, err = strconv.Atoi(v)
		if err != nil || from < 0 || from > n {
			return writeResponseHeader(w, 404, 0)
		}
	}
	if err := writeResponseHeader(w, 200, int64(n-from)); err != nil {
		return err
	}
	return writeBody(w, nil, n-from)
}

// BuildManifest renders the machine-readable resource list embedded at
// the top of a default page.
func BuildManifest(site *Site) []byte {
	b := append(make([]byte, 0, 64+48*len(site.Resources)), "ptperf-page resources="...)
	b = strconv.AppendInt(b, int64(len(site.Resources)), 10)
	b = append(b, " base-weight-ppm="...)
	b = append(strconv.AppendInt(b, int64(int(site.BaseVisualWeight*1e6)), 10), '\n')
	for _, r := range site.Resources {
		b = append(append(b, r.Path...), ' ')
		b = append(strconv.AppendInt(b, int64(r.Bytes), 10), ' ')
		b = append(strconv.AppendInt(b, int64(int(r.VisualWeight*1e6)), 10), '\n')
	}
	return b
}

// ParseManifest recovers the resource list from a page body prefix. It
// reads the manifest's lines only, never the filler after them.
//
// Each line is read as fmt.Sscanf reads it with the formats
// "ptperf-page resources=%d base-weight-ppm=%d" and "%s %d %d", which
// FuzzParseManifest holds it to: a space in the format matches one or
// more of fmt's spaces, a %d skips spaces and takes a sign and decimal
// digits, a %s the next run of non-spaces, and what follows a line's
// last number is ignored.
func ParseManifest(body []byte) (base float64, res []Resource, ok bool) {
	line, rest, more := bytes.Cut(body, []byte("\n"))
	line, ok = bytes.CutPrefix(line, []byte("ptperf-page "))
	if !ok {
		return 0, nil, false
	}
	line, _ = skipSpaces(line)
	nres, line, ok := scanInt(line, "resources=")
	if !ok {
		return 0, nil, false
	}
	basePPM, _, ok := scanInt(line, " base-weight-ppm=")
	if !ok {
		return 0, nil, false
	}
	for i := 0; i < nres; i++ {
		if !more {
			return 0, nil, false // fewer lines than resources declared
		}
		line, rest, more = bytes.Cut(rest, []byte("\n"))
		var r Resource
		var ppm int
		r.Path, line, ok = scanWord(line)
		if ok {
			r.Bytes, line, ok = scanInt(line, " ")
		}
		if ok {
			ppm, _, ok = scanInt(line, " ")
		}
		if !ok {
			return 0, nil, false
		}
		r.VisualWeight = float64(ppm) / 1e6
		res = append(res, r)
	}
	return float64(basePPM) / 1e6, res, true
}

// isScanSpace reports whether fmt's scanner takes r for a space.
func isScanSpace(r rune) bool {
	switch {
	case r >= '\t' && r <= '\r', r == ' ', r == 0x85, r == 0xa0, r == 0x1680,
		r >= 0x2000 && r <= 0x200a, r == 0x2028, r == 0x2029, r == 0x202f, r == 0x205f, r == 0x3000:
		return true
	}
	return false
}

// skipSpaces drops the spaces at the head of b and reports whether
// there were any.
func skipSpaces(b []byte) ([]byte, bool) {
	n := 0
	for n < len(b) {
		r, w := utf8.DecodeRune(b[n:])
		if !isScanSpace(r) {
			break
		}
		n += w
	}
	return b[n:], n > 0
}

// scanInt reads lit, then a %d, at the head of b; a leading space in lit
// stands for one or more spaces.
func scanInt(b []byte, lit string) (int, []byte, bool) {
	if l, ok := strings.CutPrefix(lit, " "); ok {
		var spaced bool
		if b, spaced = skipSpaces(b); !spaced {
			return 0, nil, false
		}
		lit = l
	}
	b, ok := bytes.CutPrefix(b, []byte(lit))
	if !ok {
		return 0, nil, false
	}
	b, _ = skipSpaces(b)
	n := 0
	if n < len(b) && (b[n] == '+' || b[n] == '-') {
		n++
	}
	digits := n
	for n < len(b) && '0' <= b[n] && b[n] <= '9' {
		n++
	}
	if n == digits {
		return 0, nil, false
	}
	x, err := strconv.ParseInt(string(b[:n]), 10, 64)
	return int(x), b[n:], err == nil
}

// scanWord reads a %s at the head of b: spaces, then at least one
// non-space. fmt reads each byte of invalid UTF-8 as U+FFFD, so the word
// does too.
func scanWord(b []byte) (string, []byte, bool) {
	b, _ = skipSpaces(b)
	n := 0
	for n < len(b) {
		r, w := utf8.DecodeRune(b[n:])
		if isScanSpace(r) {
			break
		}
		n += w
	}
	if n == 0 {
		return "", nil, false
	}
	if !utf8.Valid(b[:n]) {
		return string([]rune(string(b[:n]))), b[n:], true
	}
	return string(b[:n]), b[n:], true
}
