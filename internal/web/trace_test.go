package web

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strings"
	"testing"
	"time"

	"ptperf/internal/geo"
	"ptperf/internal/netem"
	"ptperf/internal/testkit/tracekit"
)

// originRig is an origin whose conns are traced, and a client host on
// a slower link than the origin's.
type originRig struct {
	net    *netem.Network
	clock  *netem.Clock
	client *netem.Host
	origin *Origin
	trace  *tracekit.Trace
}

func newOriginRig(t *testing.T) *originRig {
	n := netem.New(netem.WithSeed(5))
	t.Cleanup(n.Clock().Shutdown)
	r := &originRig{net: n, clock: n.Clock(), trace: tracekit.New(n)}
	server := n.MustAddHost(netem.HostConfig{Name: "origin", Location: geo.NewYork, UplinkBps: 4 << 20, DownlinkBps: 4 << 20})
	r.client = n.MustAddHost(netem.HostConfig{Name: "client", Location: geo.Toronto, UplinkBps: 1 << 20, DownlinkBps: 1 << 20})
	// The one CBL site's manifest is more than the origin's 32 KiB write
	// buffer holds.
	big := Site{PageBytes: 150_000, BaseVisualWeight: 0.5}
	for k := range 1500 {
		big.Resources = append(big.Resources, Resource{Path: fmt.Sprintf("/res/cbl/0/%d", k), Bytes: 100, VisualWeight: 0.0001})
	}
	r.origin = &Origin{catalogs: map[List]*Catalog{
		Tranco: GenerateCatalog(Tranco, 3, 1, 0.5),
		CBL:    {List: CBL, Sites: []Site{big}},
	}, addr: "origin:80"}
	ln, err := server.Listen(80)
	if err != nil {
		t.Fatal(err)
	}
	ln.Serve(func(c *netem.Conn) { r.origin.serveConn(r.trace.Calls(c, "origin")) })
	return r
}

// visit dials the origin and runs fn on a client goroutine.
func (r *originRig) visit(t *testing.T, fn func(c netem.Stream)) {
	c, err := r.client.Dial(r.origin.Addr())
	if err != nil {
		t.Fatal(err)
	}
	r.net.Go(func() { fn(c) })
}

// fetch reads one response on br, chunk bytes at a time with pause
// after each read, and records its status and length.
func (r *originRig) fetch(br *bufio.Reader, chunk int, pause time.Duration) {
	resp, err := readResponse(br)
	got := 0
	buf := make([]byte, chunk)
	for err == nil && int64(got) < resp.ContentLength {
		var n int
		n, err = br.Read(buf[:min(int64(chunk), resp.ContentLength-int64(got))])
		got += n
		r.clock.Sleep(pause)
	}
	r.trace.Printf("%d client got %d %d of %d %v\n", r.clock.Now(), resp.Status, got, resp.ContentLength, err)
}

// originScenarios drive a rig; each then runs for a minute of virtual
// time.
var originScenarios = []struct {
	name string
	run  func(t *testing.T, r *originRig)
}{
	{"404", func(t *testing.T, r *originRig) {
		r.visit(t, func(c netem.Stream) {
			WriteRequest(c, "/nothing", true)
			r.fetch(bufio.NewReader(c), 4<<10, 0)
		})
	}},
	{"resource", func(t *testing.T, r *originRig) {
		r.visit(t, func(c netem.Stream) {
			WriteRequest(c, r.origin.catalogs[Tranco].Sites[1].Resources[0].Path, true)
			r.fetch(bufio.NewReader(c), 4<<10, 0)
		})
	}},
	{"page", func(t *testing.T, r *originRig) {
		r.visit(t, func(c netem.Stream) {
			WriteRequest(c, "/site/tranco/2", true)
			r.fetch(bufio.NewReader(c), 32<<10, 0)
		})
	}},
	{"large-page", func(t *testing.T, r *originRig) {
		r.visit(t, func(c netem.Stream) {
			WriteRequest(c, "/site/cbl/0", true)
			r.fetch(bufio.NewReader(c), 32<<10, 0)
		})
	}},
	// Ten 64 KiB chunks and a tail to a client that reads 16 KiB every
	// 20 ms: the origin's writes wait on the receive window.
	{"file", func(t *testing.T, r *originRig) {
		r.visit(t, func(c netem.Stream) {
			WriteRequest(c, FilePath(10*64<<10+5000)+"?from=3", true)
			r.fetch(bufio.NewReader(c), 16<<10, 20*time.Millisecond)
		})
	}},
	{"keep-alive", func(t *testing.T, r *originRig) {
		r.visit(t, func(c netem.Stream) {
			br := bufio.NewReader(c)
			WriteRequest(c, FilePath(40000), false)
			r.fetch(br, 32<<10, 0)
			WriteRequest(c, "/site/tranco/0", true)
			r.fetch(br, 32<<10, 0)
		})
	}},
	// Two requests in one write: the second waits in the origin's read
	// buffer while the first is answered.
	{"pipelined", func(t *testing.T, r *originRig) {
		r.visit(t, func(c netem.Stream) {
			var b bytes.Buffer
			WriteRequest(&b, FilePath(70000), false)
			WriteRequest(&b, "/site/tranco/1", true)
			c.Write(b.Bytes())
			br := bufio.NewReader(c)
			r.fetch(br, 32<<10, 0)
			r.fetch(br, 32<<10, 0)
		})
	}},
	// A request in three writes 5 ms apart, split inside a line: the
	// origin reads a line's start, then the rest of it.
	{"split-request", func(t *testing.T, r *originRig) {
		r.visit(t, func(c netem.Stream) {
			var b bytes.Buffer
			WriteRequest(&b, "/res/tranco/0/0", true)
			c.Write(b.Bytes()[:9])
			r.clock.Sleep(5 * time.Millisecond)
			c.Write(b.Bytes()[9:30])
			r.clock.Sleep(5 * time.Millisecond)
			c.Write(b.Bytes()[30:])
			r.fetch(bufio.NewReader(c), 4<<10, 0)
		})
	}},
	// A request line more than twice the origin's 4 KiB read buffer,
	// then a request after it on the same conn.
	{"long-line", func(t *testing.T, r *originRig) {
		r.visit(t, func(c netem.Stream) {
			br := bufio.NewReader(c)
			WriteRequest(c, "/res/"+strings.Repeat("a", 9000), false)
			r.fetch(br, 4<<10, 0)
			WriteRequest(c, "/site/tranco/0", true)
			r.fetch(br, 32<<10, 0)
		})
	}},
	{"malformed", func(t *testing.T, r *originRig) {
		r.visit(t, func(c netem.Stream) {
			c.Write([]byte("BOGUS\r\n\r\n"))
			r.fetch(bufio.NewReader(c), 4<<10, 0)
		})
	}},
	// The client hangs up 100 KiB into a 1 MiB body: a write of the
	// origin's fails.
	{"client-gone", func(t *testing.T, r *originRig) {
		r.visit(t, func(c netem.Stream) {
			WriteRequest(c, FilePath(1<<20), false)
			br := bufio.NewReader(c)
			readResponse(br)
			io.CopyN(io.Discard, br, 100<<10)
			c.Close()
		})
	}},
	{"silent-close", func(t *testing.T, r *originRig) {
		r.visit(t, func(c netem.Stream) {
			r.clock.Sleep(10 * time.Millisecond)
			c.Close()
		})
	}},
}

// originTraceDigests pins, per scenario, a digest of every call the
// origin made on its conn with its instant and result, and of what the
// client received. They were taken while the origin read its requests
// through a 4 KiB bufio.Reader and wrote its responses through a 32 KiB
// bufio.Writer on a goroutine of each conn's own, and must not move.
var originTraceDigests = map[string]string{
	"404":           "835689d11e0e9783",
	"resource":      "83b6dcb0791ca65e",
	"page":          "7fe82db8080ec01d",
	"large-page":    "d470832ce38a207e",
	"file":          "656860a3d0430bcc",
	"keep-alive":    "14bab386f2061503",
	"pipelined":     "3c485273ce02bb8a",
	"split-request": "2d60ff69676493d5",
	"long-line":     "94d1e7cfc80bdf4b",
	"malformed":     "5302b7811ea2c3c2",
	"client-gone":   "976a5040569a6b68",
	"silent-close":  "3268c562744e3987",
}

func TestOriginWireTrace(t *testing.T) {
	for _, sc := range originScenarios {
		t.Run(sc.name, func(t *testing.T) {
			r := newOriginRig(t)
			sc.run(t, r)
			r.clock.Sleep(time.Minute)
			tracekit.Pin(t, r.trace, originTraceDigests[sc.name])
		})
	}
}
