package fetch

import (
	"bufio"
	"bytes"
	"cmp"
	"fmt"
	"io"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"ptperf/internal/netem"
	"ptperf/internal/sim"
	"ptperf/internal/web"
)

// chunkConn is a client's conn end on which every read returns the next
// chunk, or what of it fits, then io.EOF. It records the span each read
// asked for. With waits set, an event read first waits, as a netem conn
// with nothing arrived does: it reads nothing, and its again runs a
// millisecond later. Its threshold read reads chunks until p is full,
// and with waits set it now and then waits partway, returning what it
// took, for again to read on into the rest.
type chunkConn struct {
	netem.Stream
	chunks [][]byte
	reads  []int
	clock  *netem.Clock
	rng    *rand.Rand
	waits  bool
	// waited marks an event read that has waited; idle reports, at
	// each wait of a plain event read, whether the reader held an array
	// with no bytes in it, and leased, at each wait of a threshold read,
	// whether it held one.
	waited        bool
	idle, leased  func() bool
	holds, filled []bool
}

// wait reports whether an event read waits here, and if so runs again
// a millisecond later, after marking what the reader holds in marks.
func (c *chunkConn) wait(again func(), mark func() bool, marks *[]bool) bool {
	if !c.waits || c.waited || c.rng.Intn(3) != 0 {
		c.waited = false
		return false
	}
	c.waited = true
	c.clock.EventAt(c.clock.Now()+time.Millisecond, func() {
		*marks = append(*marks, mark())
		again()
	})
	return true
}

func (c *chunkConn) ReadEvent(p []byte, again func()) (int, error, bool) {
	if c.wait(again, c.idle, &c.holds) {
		return 0, nil, false
	}
	n, err := c.Read(p)
	return n, err, true
}

func (c *chunkConn) ReadFullEvent(p []byte, again func()) (int, error, bool) {
	n := 0
	for n < len(p) {
		if c.wait(again, c.leased, &c.filled) {
			return n, nil, false
		}
		m, err := c.Read(p[n:])
		if n += m; err != nil {
			return n, err, true
		}
	}
	return n, nil, true
}

func (c *chunkConn) Read(p []byte) (int, error) {
	c.reads = append(c.reads, len(p))
	if len(c.chunks) == 0 {
		return 0, io.EOF
	}
	n := copy(p, c.chunks[0])
	if c.chunks[0] = c.chunks[0][n:]; len(c.chunks[0]) == 0 {
		c.chunks = c.chunks[1:]
	}
	return n, nil
}

// bufioResponse reads a response as fetch read one through a bufio.Reader:
// the header a line at a time with ReadSlice (a line longer than the
// buffer read on with ReadBytes), then the body from what is buffered,
// refilled by Peek(1).
func bufioResponse(br *bufio.Reader) (web.Response, []byte, error) {
	var head []byte
	for {
		line, err := br.ReadSlice('\n')
		if err == bufio.ErrBufferFull {
			line = append([]byte(nil), line...)
			var rest []byte
			rest, err = br.ReadBytes('\n')
			line = append(line, rest...)
		}
		head = append(head, line...)
		resp, n, perr := web.ReadResponse(head)
		if perr != nil || n == 0 && err != nil {
			return web.Response{}, nil, cmp.Or(err, perr)
		}
		if n == 0 {
			continue
		}
		var body []byte
		for int64(len(body)) < resp.ContentLength {
			if br.Buffered() > 0 {
				p, _ := br.Peek(int(min(int64(br.Buffered()), resp.ContentLength-int64(len(body)))))
				body = append(body, p...)
				br.Discard(len(p))
			} else if _, err := br.Peek(1); err != nil {
				return resp, body, err
			}
		}
		return resp, body, nil
	}
}

// randomWire writes keep-alive responses: well-formed headers with
// random bodies, now and then a status line longer than the reader's
// array, and perhaps cut short.
func randomWire(rng *rand.Rand) []byte {
	var wire bytes.Buffer
	for k := 1 + rng.Intn(4); k > 0; k-- {
		n := rng.Intn(3000)
		if rng.Intn(3) == 0 {
			n = rng.Intn(200000)
		}
		switch rng.Intn(12) {
		case 0:
			wire.WriteString("HTTP/1.1 200 " + strings.Repeat("x", rng.Intn(80000)) + "\r\n")
		case 1:
			fmt.Fprintf(&wire, "HTTP/1.1 404 Not Found\r\nContent-Length: %d\r\n\r\n", n)
		default:
			fmt.Fprintf(&wire, "HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n", n)
		}
		body := make([]byte, n)
		rng.Read(body)
		wire.Write(body)
	}
	b := wire.Bytes()
	if rng.Intn(5) == 0 {
		b = b[:rng.Intn(len(b)+1)]
	}
	return b
}

// TestResponseReaderReadsAsBufioDid: over random keep-alive responses
// arriving in random chunks, some longer than the reader's array, with
// event reads that now and then wait, the reader returns the headers,
// bodies and errors a 32 KiB bufio.Reader returned, reading each header
// as the bufio.Reader did and each body in threshold requests. Each
// plain read that waits does so holding no array when no byte is in it,
// and each threshold read that waits holds the array its bytes land in.
func TestResponseReaderReadsAsBufioDid(t *testing.T) {
	rng := sim.NewRand(6)
	clock := netem.NewClock()
	defer clock.Shutdown()
	for i := 0; i < 300; i++ {
		wire := randomWire(rng)
		var chunks [][]byte
		for b := wire; len(b) > 0; {
			k := min(len(b), 1+rng.Intn(40000))
			chunks, b = append(chunks, slices.Clone(b[:k])), b[k:]
		}
		ref := &chunkConn{chunks: slices.Clone(chunks)}
		br := bufio.NewReaderSize(ref, readerSize)
		var want []string
		for {
			resp, body, err := bufioResponse(br)
			want = append(want, fmt.Sprintf("%+v %x %v", resp, body, err))
			if err != nil {
				break
			}
		}

		c := &chunkConn{chunks: chunks, clock: clock, rng: rng, waits: true}
		rd := newReader(clock, c)
		c.idle = func() bool { return rd.buf != nil && rd.r == rd.w }
		c.leased = func() bool { return rd.buf != nil && cap(rd.buf) == bodyChunk }
		var got []string
		for {
			resp, err := rd.readResponse()
			var body []byte
			if err == nil {
				var n int64
				n, err = copyBody(&body, rd, resp.ContentLength)
				if err == nil && n < resp.ContentLength {
					err = io.EOF
				}
			}
			got = append(got, fmt.Sprintf("%+v %x %v", resp, body, err))
			if err != nil {
				break
			}
		}
		rd.release()
		if !slices.Equal(got, want) {
			t.Fatalf("case %d: read\n%.200q\nwant\n%.200q", i, got, want)
		}
		if slices.Contains(c.holds, true) {
			t.Fatalf("case %d: a read waited holding an array with no bytes in it", i)
		}
		if slices.Contains(c.filled, false) {
			t.Fatalf("case %d: a threshold read waited holding no array for its bytes", i)
		}
	}
}

// TestReaderHoldsNoArrayWhileWaiting: a reader waiting for its response
// holds no array, and one holding the response's first bytes does; a
// body's threshold read waits holding exactly the one array its bytes
// land in, and the copy gives it back at the end.
func TestReaderHoldsNoArrayWhileWaiting(t *testing.T) {
	n, c, o, _ := testSetup(t)
	conn, err := c.dial(o.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	clock := n.Clock()
	rd := newReader(clock, conn)
	defer rd.release()
	if err := web.WriteRequest(conn, web.FilePath(1<<20), false); err != nil {
		t.Fatal(err)
	}
	var waiting []bool
	for _, at := range []time.Duration{time.Millisecond, 2 * time.Millisecond} {
		clock.EventAt(clock.Now()+at, func() { waiting = append(waiting, rd.buf == nil) })
	}
	resp, err := rd.readResponse()
	if err != nil || resp.Status != 200 {
		t.Fatalf("read %+v, %v", resp, err)
	}
	if !slices.Equal(waiting, []bool{true, true}) {
		t.Fatalf("waiting for the response, the reader held no array: %v, want [true true]", waiting)
	}
	if rd.buf == nil || rd.w == rd.r {
		t.Fatal("the reader holds the bytes that came after the header in no array")
	}
	var filling []bool
	for _, at := range []time.Duration{time.Millisecond, 2 * time.Millisecond} {
		clock.EventAt(clock.Now()+at, func() {
			filling = append(filling, rd.want > 0 && rd.buf != nil && cap(rd.buf) == bodyChunk)
		})
	}
	if got, err := copyBody(nil, rd, resp.ContentLength); err != nil || got != resp.ContentLength {
		t.Fatalf("body: %d of %d, %v", got, resp.ContentLength, err)
	}
	if !slices.Equal(filling, []bool{true, true}) {
		t.Fatalf("waiting for the body, the reader held its one array: %v, want [true true]", filling)
	}
	if rd.buf != nil {
		t.Fatal("the reader kept its array after the body")
	}
}
