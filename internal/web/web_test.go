package web

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"ptperf/internal/geo"
	"ptperf/internal/netem"
	"ptperf/internal/sim"
)

// TotalBytes is the full page weight (default page plus resources).
func (s *Site) TotalBytes() int {
	n := s.PageBytes
	for _, r := range s.Resources {
		n += r.Bytes
	}
	return n
}

func TestCatalogDeterministic(t *testing.T) {
	a := GenerateCatalog(Tranco, 50, 7, 1)
	b := GenerateCatalog(Tranco, 50, 7, 1)
	if len(a.Sites) != 50 || len(b.Sites) != 50 {
		t.Fatal("wrong size")
	}
	for i := range a.Sites {
		if a.Sites[i].PageBytes != b.Sites[i].PageBytes ||
			len(a.Sites[i].Resources) != len(b.Sites[i].Resources) {
			t.Fatalf("site %d differs between identical seeds", i)
		}
	}
	c := GenerateCatalog(Tranco, 50, 8, 1)
	same := 0
	for i := range a.Sites {
		if a.Sites[i].PageBytes == c.Sites[i].PageBytes {
			same++
		}
	}
	if same == 50 {
		t.Fatal("different seeds produced identical catalog")
	}
}

func TestCatalogByteScale(t *testing.T) {
	full := GenerateCatalog(CBL, 20, 3, 1)
	scaled := GenerateCatalog(CBL, 20, 3, 0.25)
	var fullSum, scaledSum int
	for i := range full.Sites {
		fullSum += full.Sites[i].TotalBytes()
		scaledSum += scaled.Sites[i].TotalBytes()
	}
	ratio := float64(scaledSum) / float64(fullSum)
	if ratio < 0.15 || ratio > 0.4 {
		t.Fatalf("byteScale 0.25 produced ratio %.2f", ratio)
	}
}

func TestCatalogWeightsNormalized(t *testing.T) {
	cat := GenerateCatalog(Tranco, 30, 1, 1)
	for _, s := range cat.Sites {
		sum := s.BaseVisualWeight
		for _, r := range s.Resources {
			sum += r.VisualWeight
		}
		if sum < 0.98 || sum > 1.02 {
			t.Fatalf("site %d weights sum to %.3f", s.ID, sum)
		}
	}
}

// TestManifestRoundTrip: ParseManifest reads what BuildManifest writes,
// followed by a page's filler, for the sites of random catalogs and for
// sites of random paths, sizes and weights, and recovers each weight to
// the ppm the manifest holds.
func TestManifestRoundTrip(t *testing.T) {
	ppm := func(w float64) float64 { return float64(int(w*1e6)) / 1e6 }
	f := func(seed int64, n uint8, scale uint16) bool {
		cat := GenerateCatalog([]List{Tranco, CBL}[seed&1], int(n%4)+1, seed, float64(scale)/1e3+1e-3)
		rng := sim.NewRand(seed)
		random := Site{BaseVisualWeight: rng.Float64()}
		for k := rng.Intn(50); k > 0; k-- {
			random.Resources = append(random.Resources, Resource{randomPath(rng, 1+rng.Intn(200)), rng.Int(), rng.Float64()})
		}
		for _, site := range append(cat.Sites, random) {
			base, res, ok := ParseManifest(append(BuildManifest(&site), bodyPattern[:rng.Intn(100)]...))
			if !ok || base != ppm(site.BaseVisualWeight) || len(res) != len(site.Resources) {
				return false
			}
			for k, r := range site.Resources {
				if res[k] != (Resource{r.Path, r.Bytes, ppm(r.VisualWeight)}) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestParseManifestAllocatesTwice: a page's manifest costs one string
// for its resource lines, which every Path slices, and the resource
// list, however many resources it names.
func TestParseManifestAllocatesTwice(t *testing.T) {
	site := GenerateCatalog(Tranco, 1, 1, 1).Sites[0]
	body := append(BuildManifest(&site), bodyPattern[:50]...)
	if len(site.Resources) < 2 {
		t.Fatalf("the site names %d resources, want several", len(site.Resources))
	}
	if a := testing.AllocsPerRun(100, func() { ParseManifest(body) }); a != 2 {
		t.Fatalf("parsing a manifest of %d resources allocated %v times, want 2", len(site.Resources), a)
	}
}

// randomPath draws a path of n visible ASCII bytes.
func randomPath(rng *rand.Rand, n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte('!' + rng.Intn('~'-'!'+1))
	}
	return string(b)
}

// TestParseManifestRejectsGarbage: ParseManifest refuses what
// BuildManifest does not write, down to one byte of a manifest zeroed.
func TestParseManifestRejectsGarbage(t *testing.T) {
	for _, body := range []string{
		"", "hello", "ptperf-page resources=nope", "ptperf-page resources=3 base-weight-ppm=5\nonly-one-line",
		"ptperf-page resources=1 base-weight-ppm=5", "ptperf-page resources=01 base-weight-ppm=5\n/a 1 2\n",
		"ptperf-page resources=1 base-weight-ppm=-5\n/a 1 2\n", "ptperf-page resources=1 base-weight-ppm=5\n/a 1  2\n",
		"ptperf-page resources=1 base-weight-ppm=5\n/a 1 2 3\n", "ptperf-page resources=1 base-weight-ppm=5\n/a +1 2\n",
		"ptperf-page resources=1 base-weight-ppm=5\n/\xe2\x80\x83 1 2\n", "ptperf-page resources=1 base-weight-ppm=5\n/a 1 2\r\n",
	} {
		if _, _, ok := ParseManifest([]byte(body)); ok {
			t.Errorf("garbage %q parsed", body)
		}
	}
	m := BuildManifest(&GenerateCatalog(Tranco, 1, 2, 1).Sites[0])
	for i := range m {
		b := bytes.Clone(m)
		b[i] = 0
		if _, _, ok := ParseManifest(append(b, "filler"...)); ok {
			t.Errorf("manifest with byte %d zeroed parsed: %q", i, b)
		}
	}
}

// TestHTTPRequestRoundTrip: ReadRequest reads what WriteRequest writes,
// for paths longer than the origin's 4 KiB read buffer too, and leaves
// the next pipelined request unread; it waits for more bytes on every
// beginning of a request.
func TestHTTPRequestRoundTrip(t *testing.T) {
	rng := sim.NewRand(1)
	paths := []string{"/site/tranco/3", FilePath(1<<20) + "?from=524288", "/" + randomPath(rng, 5000)}
	for i := 0; i < 20; i++ {
		paths = append(paths, randomPath(rng, 1+rng.Intn(9000)))
	}
	for _, path := range paths {
		for _, close := range []bool{true, false} {
			var buf bytes.Buffer
			if err := WriteRequest(&buf, path, close); err != nil {
				t.Fatal(err)
			}
			size := buf.Len()
			WriteRequest(&buf, "/res/cbl/1/2", !close)
			req, n, err := ReadRequest(buf.Bytes())
			if err != nil || req != (Request{Path: path, Close: close}) || n != size {
				t.Fatalf("%.40q (close %v): read %+v of %d B, %v; want %d B", path, close, req, n, err, size)
			}
			for k := range size {
				if req, n, err := ReadRequest(buf.Bytes()[:k]); n != 0 || err != nil {
					t.Fatalf("%.40q: the first %d B read as %+v of %d B, %v", path, k, req, n, err)
				}
			}
		}
	}
}

// TestHTTPResponseRoundTrip: ReadResponse reads what appendResponseHeader
// writes and leaves the body and the next pipelined response unread.
func TestHTTPResponseRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		status int
		n      int64
	}{{200, 1234}, {200, 0}, {404, 0}, {200, 1<<63 - 1}} {
		b := appendResponseHeader(nil, tc.status, tc.n)
		next := appendResponseHeader([]byte("body"), 404, 0)
		r := bufio.NewReaderSize(bytes.NewReader(append(b, next...)), 16)
		resp, err := readResponse(r)
		if err != nil || resp != (Response{Status: tc.status, ContentLength: tc.n}) {
			t.Fatalf("%+v: read %+v, %v", tc, resp, err)
		}
		if rest, _ := io.ReadAll(r); !bytes.Equal(rest, next) {
			t.Fatalf("%+v: left %q unread, want %q", tc, rest, next)
		}
	}
}

// countingWriter counts the Writes it takes.
type countingWriter struct {
	bytes.Buffer
	writes int
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes++
	return w.Buffer.Write(p)
}

// TestWritersMatchFmt: the request writer puts the bytes the fmt format
// it replaced printed on the wire, in one Write, and the response
// header appender appends the bytes its format printed.
func TestWritersMatchFmt(t *testing.T) {
	for _, tc := range []struct {
		path  string
		close bool
	}{{"/site/tranco/3", true}, {"/res/cbl/12/0", false}, {"/file/1048576?from=524288", true}, {"", false}} {
		conn := "keep-alive"
		if tc.close {
			conn = "close"
		}
		want := fmt.Sprintf("GET %s HTTP/1.1\r\nHost: origin\r\nConnection: %s\r\n\r\n", tc.path, conn)
		var w countingWriter
		if err := WriteRequest(&w, tc.path, tc.close); err != nil {
			t.Fatal(err)
		}
		if got := w.String(); got != want || w.writes != 1 {
			t.Errorf("WriteRequest(%q, %v) = %q in %d writes, want %q in 1", tc.path, tc.close, got, w.writes, want)
		}
	}
	for _, tc := range []struct {
		status int
		n      int64
	}{{200, 0}, {200, 1234}, {404, 0}, {200, 1 << 31}, {200, 1<<63 - 1}} {
		text := "OK"
		if tc.status == 404 {
			text = "Not Found"
		}
		want := fmt.Sprintf("HTTP/1.1 %d %s\r\nContent-Length: %d\r\n\r\n", tc.status, text, tc.n)
		if got := appendResponseHeader([]byte("x"), tc.status, tc.n); string(got) != "x"+want {
			t.Errorf("appendResponseHeader(%d, %d) = %q, want %q", tc.status, tc.n, got, "x"+want)
		}
	}
}

// splitStatus is the status the origin's routing gave a /site/ or /res/
// path while it split the path on every slash.
func splitStatus(o *Origin, path string) int {
	if rest, ok := strings.CutPrefix(path, "/site/"); ok {
		parts := strings.Split(rest, "/")
		if len(parts) != 2 || o.lookupSite(parts[0], parts[1]) == nil {
			return 404
		}
		return 200
	}
	parts := strings.Split(strings.TrimPrefix(path, "/res/"), "/")
	if len(parts) != 3 {
		return 404
	}
	site := o.lookupSite(parts[0], parts[1])
	if site == nil {
		return 404
	}
	if k, err := strconv.Atoi(parts[2]); err != nil || k < 0 || k >= len(site.Resources) {
		return 404
	}
	return 200
}

// TestRoutingRefusesWhatSplitRefused: routing a page or resource path
// with strings.Cut serves what splitting it on every slash served, and
// refuses the rest.
func TestRoutingRefusesWhatSplitRefused(t *testing.T) {
	o := &Origin{catalogs: map[List]*Catalog{Tranco: GenerateCatalog(Tranco, 3, 1, 0.01)}}
	res := o.catalogs[Tranco].Sites[0].Resources[0].Path
	served := []string{"/site/tranco/0", "/site/tranco/2", res}
	for i, path := range append(served,
		"/site/a", "/site/a/b/c", "/res/a/b", "/res/a/b/c/d", "/site//0",
		"/site/tranco/0/", "/site/tranco/", "/site/", "/res/tranco/0/", "/res/tranco//0", "/res//0/0", "/res/tranco/0/0/0",
	) {
		status, _, _ := o.route(path)
		want := splitStatus(o, path)
		if want != 200 && i < len(served) || want != 404 && i >= len(served) {
			t.Fatalf("%s: the split routing gives %d", path, want)
		}
		if status != want {
			t.Errorf("%s: status %d, want %d", path, status, want)
		}
	}
}

// TestHTTPMalformed: the readers refuse what their writers do not
// write, down to one byte of a written message zeroed.
func TestHTTPMalformed(t *testing.T) {
	if _, _, err := ReadRequest([]byte("BOGUS\r\n\r\n")); err == nil {
		t.Fatal("malformed request accepted")
	}
	if _, err := readResponse(bufio.NewReader(strings.NewReader("NOT-HTTP 200\r\n\r\n"))); err == nil {
		t.Fatal("malformed response accepted")
	}
	const (
		host = "Host: origin\r\n"
		keep = "Connection: keep-alive\r\n\r\n"
		ok   = "HTTP/1.1 200 OK\r\n"
	)
	for _, req := range []string{
		"GET /x HTTP/1.0\r\n" + host + keep, "get /x HTTP/1.1\r\n" + host + keep, "GET /x HTTP/1.1\n" + host + keep,
		"GET /x HTTP/1.1\r\nhost: origin\r\n" + keep, "GET /x HTTP/1.1\r\n" + keep, "GET /x HTTP/1.1\r\n" + host + "Connection: Close\r\n\r\n",
		"GET /x HTTP/1.1\r\n" + host + "Connection: keep-alive\r\nServer: x\r\n\r\n", "GET /\xe2\x80\x83 HTTP/1.1\r\n" + host + keep,
	} {
		if got, n, err := ReadRequest([]byte(req)); !errors.Is(err, errMalformed) {
			t.Errorf("request %q read as %+v of %d B, %v; want %v", req, got, n, err, errMalformed)
		}
	}
	for _, resp := range []string{
		"HTTP/1.1 0200 OK\r\nContent-Length: 5\r\n\r\n", "HTTP/1.1 +200 OK\r\nContent-Length: 5\r\n\r\n", "HTTP/1.1 404 OK\r\nContent-Length: 5\r\n\r\n",
		ok + "Content-Length: 05\r\n\r\n", ok + "Content-Length: +5\r\n\r\n", ok + "content-length: 5\r\n\r\n", ok + "Content-Length:  5\r\n\r\n",
		ok + "\r\n", ok + "Content-Length: 5\r\nServer: x\r\n\r\n",
	} {
		if got, err := readResponse(bufio.NewReader(strings.NewReader(resp))); err == nil {
			t.Errorf("response header %q read as %+v", resp, got)
		}
	}
	var req bytes.Buffer
	WriteRequest(&req, FilePath(1234)+"?from=5", false)
	resp := appendResponseHeader(nil, 404, 0)
	for i := range req.Len() {
		b := bytes.Clone(req.Bytes())
		b[i] = 0
		// Zeroing the last '\n' leaves the beginning of a request, read
		// or not; any other byte zeroed spoils a whole line.
		got, n, err := ReadRequest(b)
		if last := i == req.Len()-1; last && (n != 0 || err != nil) || !last && !errors.Is(err, errMalformed) {
			t.Errorf("request %q read as %+v of %d B, %v", b, got, n, err)
		}
	}
	for i := range resp {
		b := bytes.Clone(resp)
		b[i] = 0
		if got, err := readResponse(bufio.NewReader(bytes.NewReader(b))); err == nil {
			t.Errorf("response header %q read as %+v", b, got)
		}
	}
}

func newOrigin(t *testing.T) (*netem.Network, *netem.Host, *Origin) {
	t.Helper()
	n := netem.New(netem.WithSeed(2))
	t.Cleanup(n.Clock().Shutdown)
	server := n.MustAddHost(netem.HostConfig{Name: "origin", Location: geo.NewYork})
	client := n.MustAddHost(netem.HostConfig{Name: "client", Location: geo.Toronto})
	cat := GenerateCatalog(Tranco, 5, 1, 0.25)
	o, err := StartOrigin(server, 80, cat)
	if err != nil {
		t.Fatal(err)
	}
	return n, client, o
}

func get(t *testing.T, client *netem.Host, origin *Origin, path string) (int, []byte) {
	t.Helper()
	conn, err := client.Dial(origin.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := WriteRequest(conn, path, true); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	resp, err := readResponse(br)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(io.LimitReader(br, resp.ContentLength))
	if err != nil {
		t.Fatal(err)
	}
	return resp.Status, body
}

func TestOriginServesPage(t *testing.T) {
	_, client, o := newOrigin(t)
	status, body := get(t, client, o, "/site/tranco/0")
	if status != 200 {
		t.Fatalf("status %d", status)
	}
	base, res, ok := ParseManifest(body)
	if !ok || base <= 0 || len(res) == 0 {
		t.Fatal("page should start with a parsable manifest")
	}
	status, body = get(t, client, o, res[0].Path)
	if status != 200 || len(body) != res[0].Bytes {
		t.Fatalf("resource fetch: status=%d len=%d want %d", status, len(body), res[0].Bytes)
	}
}

func TestOriginServesFiles(t *testing.T) {
	_, client, o := newOrigin(t)
	status, body := get(t, client, o, FilePath(10_000))
	if status != 200 || len(body) != 10_000 {
		t.Fatalf("file: status=%d len=%d", status, len(body))
	}
}

// TestOriginServesFileTail covers the resume form: ?from=<off> serves
// exactly the remainder, the boundary offsets behave, and malformed or
// out-of-range offsets 404 rather than serving a wrong-length body.
func TestOriginServesFileTail(t *testing.T) {
	_, client, o := newOrigin(t)
	status, tail := get(t, client, o, FilePath(10_000)+"?from=9000")
	if status != 200 || len(tail) != 1000 {
		t.Fatalf("tail: status=%d len=%d, want 200/1000", status, len(tail))
	}
	status, body := get(t, client, o, FilePath(10_000)+"?from=0")
	if status != 200 || len(body) != 10_000 {
		t.Fatalf("from=0: status=%d len=%d", status, len(body))
	}
	status, body = get(t, client, o, FilePath(10_000)+"?from=10000")
	if status != 200 || len(body) != 0 {
		t.Fatalf("from=size: status=%d len=%d, want empty 200", status, len(body))
	}
	for _, p := range []string{"?from=10001", "?from=-1", "?from=abc", "?offset=5"} {
		if status, _ := get(t, client, o, FilePath(10_000)+p); status != 404 {
			t.Errorf("query %q: status %d, want 404", p, status)
		}
	}
}

func TestOrigin404s(t *testing.T) {
	_, client, o := newOrigin(t)
	for _, p := range []string{
		"/site/tranco/999", "/site/bogus/0", "/res/tranco/0/999", "/file/abc", "/nothing", "/site/tranco/0/extra",
		// Numbers no client writes: a sign or a leading zero.
		"/site/tranco/+1", "/site/tranco/01", "/res/tranco/0/+0", "/file/+10", "/file/10?from=+2", "/file/010",
	} {
		if status, _ := get(t, client, o, p); status != 404 {
			t.Errorf("path %s: status %d, want 404", p, status)
		}
	}
}

func TestOriginKeepAlive(t *testing.T) {
	_, client, o := newOrigin(t)
	conn, err := client.Dial(o.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	br := bufio.NewReader(conn)
	for i := 0; i < 3; i++ {
		if err := WriteRequest(conn, FilePath(500), false); err != nil {
			t.Fatal(err)
		}
		resp, err := readResponse(br)
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if _, err := io.CopyN(io.Discard, br, resp.ContentLength); err != nil {
			t.Fatal(err)
		}
	}
}
