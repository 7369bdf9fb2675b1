package web

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"sync"

	"ptperf/internal/netem"
)

// Origin serves the catalogs and bulk files over the minimal HTTP/1.1
// subset. One origin stands in for the paper's "uncensored Internet".
type Origin struct {
	catalogs  map[List]*Catalog
	addr      string
	manifests map[*Site][]byte // each page's manifest, built once
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
	ln.Serve(func(c *netem.Conn) { o.serveConn(c) })
	return o, nil
}

// Addr returns the origin's "host:port".
func (o *Origin) Addr() string { return o.addr }

// served is one conn the origin serves, leased from servedPool for as
// long as it is open (DESIGN.md "Buffer ownership"). It is served by a
// chain of clock events that makes the Read and Write calls a loop over
// a 4 KiB bufio.Reader and a 32 KiB bufio.Writer made, with the same
// spans at the same instants: a span is where a segment ends, which
// moves report bytes. Its buffers are leased only while they hold
// bytes: in while it holds unread bytes or a read is filling it, out
// from the response's start until it is written.
type served struct {
	o    *Origin
	conn netem.Stream
	// in[r:w] is read and not yet taken, in nil unless leased; head
	// holds the lines of the request being read.
	in   []byte
	r, w int
	head []byte
	// out[:n] is the response buffered. The response goes on with body,
	// then left pattern bytes; span is what a Write is taking, nil
	// between Writes.
	out   *[32 << 10]byte
	n     int
	body  []byte
	left  int
	span  []byte
	close bool
	// readFn and resumeFn are read and resume, bound once.
	readFn, resumeFn func()
}

// The pools are the package's, not an Origin's: every world's origin
// leases from them, so concurrent worlds do not each fill a list.
var (
	servedPool = sync.Pool{New: func() any { return new(served) }}
	inBufs     = sync.Pool{New: func() any { return new([4 << 10]byte) }}
	outBufs    = sync.Pool{New: func() any { return new([32 << 10]byte) }}
)

func (o *Origin) serveConn(conn netem.Stream) {
	s := servedPool.Get().(*served)
	if s.readFn == nil {
		s.readFn, s.resumeFn = s.read, s.resume
	}
	s.o, s.conn = o, conn
	s.read()
}

// read takes requests a line at a time, as ReadSlice took them from a
// bufio.Reader of in's size: a line is looked for in what was read, and
// in is refilled, its unread bytes moved to its front, only when none
// is there. A line longer than in is read on, as readLine did. Each
// request is answered before the next line is looked for. in goes back
// once every byte in it is taken.
func (s *served) read() {
	for {
		if i := bytes.IndexByte(s.in[s.r:s.w], '\n'); i >= 0 {
			s.head = append(s.head, s.in[s.r:s.r+i+1]...)
			s.r += i + 1
			s.dropIn()
			req, n, err := ReadRequest(s.head)
			if err != nil {
				s.hangUp()
				return
			}
			if n > 0 && !s.respond(req) {
				return
			}
			continue
		}
		if s.in == nil {
			s.in = inBufs.Get().(*[4 << 10]byte)[:]
		}
		if s.w-s.r == len(s.in) {
			s.head = append(s.head, s.in[s.r:s.w]...)
			s.r = s.w
		}
		s.w, s.r = copy(s.in, s.in[s.r:s.w]), 0
		n, err, done := s.conn.ReadEvent(s.in[s.w:], s.readFn)
		if !done {
			s.dropIn()
			return
		}
		if s.w += n; err != nil {
			s.hangUp()
			return
		}
	}
}

// dropIn gives in back if every byte read into it is taken.
func (s *served) dropIn() {
	if s.in != nil && s.r == s.w {
		inBufs.Put((*[4 << 10]byte)(s.in))
		s.in, s.r, s.w = nil, 0, 0
	}
}

// respond starts the response to req and reports whether it has been
// written whole and the conn stays open.
func (s *served) respond(req Request) bool {
	status, prefix, n := s.o.route(req.Path)
	s.head, s.close = s.head[:0], req.Close
	s.out = outBufs.Get().(*[32 << 10]byte)
	s.n = len(appendResponseHeader(s.out[:0], status, int64(n)))
	s.body, s.left = prefix, n-len(prefix)
	return s.write()
}

// write writes the response as a bufio.Writer of out's size wrote it:
// a piece that fits is copied into out; one that does not goes straight
// to the conn if out is empty, or else fills out, which is written
// whole; and what is left in out is written at the end, and out goes
// back. It reports whether the response is written and the conn stays
// open.
func (s *served) write() bool {
	for {
		if s.span != nil {
			n, err, done := s.conn.WriteEvent(s.span, s.resumeFn)
			if s.span = s.span[n:]; !done {
				return false // perhaps all taken, and a segment waits
			}
			if s.span = nil; err != nil {
				s.hangUp()
				return false
			}
		}
		switch {
		case len(s.body) == 0 && s.left > 0:
			s.body = bodyPattern[:min(s.left, len(bodyPattern))]
			s.left -= len(s.body)
		case len(s.body) == 0 && s.n > 0:
			s.span, s.n = s.out[:s.n], 0
		case len(s.body) == 0 && s.close:
			s.hangUp()
			return false
		case len(s.body) == 0:
			outBufs.Put(s.out)
			s.out = nil
			return true
		case len(s.body) <= len(s.out)-s.n:
			s.n += copy(s.out[s.n:], s.body)
			s.body = nil
		case s.n == 0:
			s.span, s.body = s.body, nil
		default:
			s.body = s.body[copy(s.out[s.n:], s.body):]
			s.span, s.n = s.out[:], 0
		}
	}
}

// resume is write's continuation: it writes on, and reads the next
// request once the response is out.
func (s *served) resume() {
	if s.write() {
		s.read()
	}
}

// hangUp closes the conn and hands the state and the buffers back.
func (s *served) hangUp() {
	s.conn.Close()
	if s.out != nil {
		outBufs.Put(s.out)
	}
	s.r = s.w // what is unread goes with the conn
	s.dropIn()
	s.o, s.conn, s.head, s.body, s.span, s.out, s.n = nil, nil, s.head[:0], nil, nil, nil, 0
	servedPool.Put(s)
}

// route answers a GET: its status, and a body of n bytes that begins
// with prefix, no longer than n, and goes on in pattern bytes.
func (o *Origin) route(path string) (status int, prefix []byte, n int) {
	switch {
	case strings.HasPrefix(path, "/site/"):
		return o.page(path)
	case strings.HasPrefix(path, "/res/"):
		return o.resource(path)
	case strings.HasPrefix(path, "/file/"):
		return o.file(path)
	}
	return 404, nil, 0
}

// lookupSite resolves "/site/<list>/<id>" or "/res/<list>/<id>/<k>".
func (o *Origin) lookupSite(list, id string) *Site {
	cat := o.catalogs[List(list)]
	if cat == nil {
		return nil
	}
	n, ok := atoi(id, 0)
	if !ok || n >= int64(len(cat.Sites)) {
		return nil
	}
	return &cat.Sites[n]
}

// page answers with the default document. Its body begins with a
// resource manifest — the simulation's stand-in for HTML references —
// followed by filler up to the page size:
//
//	ptperf-page resources=<n> base-weight-ppm=<ppm>
//	<path> <bytes> <weight-ppm>
//	...
func (o *Origin) page(path string) (int, []byte, int) {
	// A missing or extra slash leaves an id no number parses.
	list, id, _ := strings.Cut(strings.TrimPrefix(path, "/site/"), "/")
	site := o.lookupSite(list, id)
	if site == nil {
		return 404, nil, 0
	}
	manifest, ok := o.manifests[site]
	if !ok {
		manifest = BuildManifest(site)
		if o.manifests == nil {
			o.manifests = make(map[*Site][]byte)
		}
		o.manifests[site] = manifest
	}
	return 200, manifest, max(site.PageBytes, len(manifest))
}

func (o *Origin) resource(path string) (int, []byte, int) {
	list, rest, _ := strings.Cut(strings.TrimPrefix(path, "/res/"), "/")
	id, idx, _ := strings.Cut(rest, "/") // as in page
	site := o.lookupSite(list, id)
	if site == nil {
		return 404, nil, 0
	}
	k, ok := atoi(idx, 0)
	if !ok || k >= int64(len(site.Resources)) {
		return 404, nil, 0
	}
	return 200, nil, site.Resources[k].Bytes
}

// file answers "/file/<n>" (n pattern bytes) or "/file/<n>?from=<off>"
// (the remainder from byte off — the resume form clients use to finish
// a download interrupted by a mid-circuit failure).
func (o *Origin) file(path string) (int, []byte, int) {
	spec, query, _ := strings.Cut(strings.TrimPrefix(path, "/file/"), "?")
	n, ok := atoi(spec, 0)
	if !ok || n > 1<<31 {
		return 404, nil, 0
	}
	from := int64(0)
	if query != "" {
		v, named := strings.CutPrefix(query, "from=")
		if from, ok = atoi(v, 0); !named || !ok || from > n {
			return 404, nil, 0
		}
	}
	return 200, nil, int(n - from)
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

// ParseManifest recovers the resource list from a page body prefix,
// written by BuildManifest: its first line, then one line per resource.
// It reads the manifest's lines only, never the filler after them. The
// resource lines are converted to one string, which every Path slices,
// and res is sized from the declared count once the lines back it: two
// allocations a page.
func ParseManifest(body []byte) (base float64, res []Resource, ok bool) {
	line, rest, ok := bytes.Cut(body, []byte("\n"))
	line, head := bytes.CutPrefix(line, []byte("ptperf-page resources="))
	count, line, _ := bytes.Cut(line, []byte(" "))
	basePPM, named := bytes.CutPrefix(line, []byte("base-weight-ppm="))
	nres, okn := atoi(count, 0)
	ppm, okp := atoi(basePPM, 0)
	if !ok || !head || !named || !okn || !okp {
		return 0, nil, false
	}
	end := 0
	for i := int64(0); i < nres; i++ {
		k := bytes.IndexByte(rest[end:], '\n')
		if k < 0 {
			return 0, nil, false // fewer lines than resources declared
		}
		end += k + 1
	}
	if nres == 0 {
		return float64(ppm) / 1e6, nil, true
	}
	lines := string(rest[:end])
	res = make([]Resource, 0, nres)
	for lines != "" {
		var line string
		line, lines, _ = strings.Cut(lines, "\n")
		path, line, _ := strings.Cut(line, " ")
		size, weight, _ := strings.Cut(line, " ")
		n, okn := atoi(size, 0)
		w, okw := atoi(weight, 0)
		if !isPath(path) || !okn || !okw {
			return 0, nil, false
		}
		res = append(res, Resource{Path: path, Bytes: int(n), VisualWeight: float64(w) / 1e6})
	}
	return float64(ppm) / 1e6, res, true
}
