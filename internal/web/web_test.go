package web

import (
	"bufio"
	"bytes"
	"io"
	"strings"
	"testing"
	"testing/quick"

	"ptperf/internal/geo"
	"ptperf/internal/netem"
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

func TestManifestRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		cat := GenerateCatalog(Tranco, 1, seed, 1)
		site := &cat.Sites[0]
		m := BuildManifest(site)
		base, res, ok := ParseManifest(m)
		if !ok || len(res) != len(site.Resources) {
			return false
		}
		if base < site.BaseVisualWeight-0.001 || base > site.BaseVisualWeight+0.001 {
			return false
		}
		for i := range res {
			if res[i].Path != site.Resources[i].Path || res[i].Bytes != site.Resources[i].Bytes {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestParseManifestRejectsGarbage(t *testing.T) {
	for _, body := range []string{"", "hello", "ptperf-page resources=nope", "ptperf-page resources=3 base-weight-ppm=5\nonly-one-line"} {
		if _, _, ok := ParseManifest([]byte(body)); ok {
			t.Errorf("garbage %q parsed", body)
		}
	}
}

func TestHTTPRequestRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteRequest(&buf, "/site/tranco/3", true); err != nil {
		t.Fatal(err)
	}
	req, err := ReadRequest(bufio.NewReader(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if req.Method != "GET" || req.Path != "/site/tranco/3" || !req.Close {
		t.Fatalf("req = %+v", req)
	}
}

func TestHTTPResponseRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := writeResponseHeader(&buf, 200, 1234); err != nil {
		t.Fatal(err)
	}
	resp, err := ReadResponse(bufio.NewReader(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != 200 || resp.ContentLength != 1234 {
		t.Fatalf("resp = %+v", resp)
	}
}

func TestHTTPMalformed(t *testing.T) {
	if _, err := ReadRequest(bufio.NewReader(strings.NewReader("BOGUS\r\n\r\n"))); err == nil {
		t.Fatal("malformed request accepted")
	}
	if _, err := ReadResponse(bufio.NewReader(strings.NewReader("NOT-HTTP 200\r\n\r\n"))); err == nil {
		t.Fatal("malformed response accepted")
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
	resp, err := ReadResponse(br)
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
	for _, p := range []string{"/site/tranco/999", "/site/bogus/0", "/res/tranco/0/999", "/file/abc", "/nothing", "/site/tranco/0/extra"} {
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
		resp, err := ReadResponse(br)
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if _, err := io.CopyN(io.Discard, br, resp.ContentLength); err != nil {
			t.Fatal(err)
		}
	}
}
