package web

import (
	"bufio"
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
//	ptperf-page resources=<n> base-weight-ppm=<ppm>
//	<path> <bytes> <weight-ppm>
//	...
func (o *Origin) servePage(w *bufio.Writer, path string) error {
	// A missing or extra slash leaves an id no number parses.
	list, id, _ := strings.Cut(strings.TrimPrefix(path, "/site/"), "/")
	site := o.lookupSite(list, id)
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
	list, rest, _ := strings.Cut(strings.TrimPrefix(path, "/res/"), "/")
	id, idx, _ := strings.Cut(rest, "/") // as in servePage
	site := o.lookupSite(list, id)
	if site == nil {
		return writeResponseHeader(w, 404, 0)
	}
	k, err := strconv.Atoi(idx)
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

// ParseManifest recovers the resource list from a page body prefix,
// written by BuildManifest: its first line, then one line per resource.
// It reads the manifest's lines only, never the filler after them.
func ParseManifest(body []byte) (base float64, res []Resource, ok bool) {
	line, body, ok := bytes.Cut(body, []byte("\n"))
	line, head := bytes.CutPrefix(line, []byte("ptperf-page resources="))
	count, line, _ := bytes.Cut(line, []byte(" "))
	basePPM, named := bytes.CutPrefix(line, []byte("base-weight-ppm="))
	nres, okn := atoi(count, 0)
	ppm, okp := atoi(basePPM, 0)
	if !ok || !head || !named || !okn || !okp {
		return 0, nil, false
	}
	for ; nres > 0; nres-- {
		if line, body, ok = bytes.Cut(body, []byte("\n")); !ok {
			return 0, nil, false // fewer lines than resources declared
		}
		path, line, _ := bytes.Cut(line, []byte(" "))
		size, weight, _ := bytes.Cut(line, []byte(" "))
		n, okn := atoi(size, 0)
		w, okw := atoi(weight, 0)
		if !isPath(path) || !okn || !okw {
			return 0, nil, false
		}
		res = append(res, Resource{Path: string(path), Bytes: int(n), VisualWeight: float64(w) / 1e6})
	}
	return float64(ppm) / 1e6, res, true
}
