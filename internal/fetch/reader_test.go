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

	"ptperf/internal/sim"
	"ptperf/internal/testkit/streamtest"
	"ptperf/internal/web"
)

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
// written in random chunks over a netem conn, some longer than the
// reader's array, with every read cut at its chunk's end
// (streamtest.Alter), the reader returns the headers, bodies and errors
// a 32 KiB bufio.Reader returned, reading each header as the
// bufio.Reader did and each body in threshold requests. Whenever the
// writer pauses, a plain read waits holding no array with no byte in it,
// and a threshold read holds the array its bytes land in.
func TestResponseReaderReadsAsBufioDid(t *testing.T) {
	rng := sim.NewRand(6)
	for i := 0; i < 300; i++ {
		wire := randomWire(rng)
		var chunks []io.Reader
		ends := []int{0} // chunk k is wire[ends[k-1]:ends[k]]
		for at := 0; at < len(wire); at = ends[len(ends)-1] {
			ends = append(ends, min(len(wire), at+1+rng.Intn(40000)))
			chunks = append(chunks, bytes.NewReader(wire[at:ends[len(ends)-1]]))
		}
		br := bufio.NewReaderSize(io.MultiReader(chunks...), readerSize)
		var want []string
		for {
			resp, body, err := bufioResponse(br)
			want = append(want, fmt.Sprintf("%+v %x %v", resp, body, err))
			if err != nil {
				break
			}
		}

		n, a, b := streamtest.Conns(t, 0)
		rd := newReader(n.Clock(), streamtest.Alter(b, func(got, want int) int {
			if k, _ := slices.BinarySearch(ends, got+1); k < len(ends) {
				return ends[k] - got
			}
			return want
		}))
		reading, waited := true, ""
		pauses := make([]time.Duration, len(ends))
		for k := range pauses {
			pauses[k] = time.Duration(rng.Intn(2000)) * time.Microsecond
		}
		n.Go(func() {
			for k := 1; k < len(ends); k++ {
				n.Clock().Sleep(pauses[k])
				switch {
				case !reading:
				case rd.want > 0 && (rd.buf == nil || cap(rd.buf) != bodyChunk):
					waited = "a threshold read waited holding no array for its bytes"
				case rd.want == 0 && rd.buf != nil && rd.r == rd.w:
					waited = "a read waited holding an array with no bytes in it"
				}
				a.Write(wire[ends[k-1]:ends[k]])
			}
			a.CloseWrite()
		})
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
		reading = false
		rd.release()
		if !slices.Equal(got, want) {
			t.Fatalf("case %d: read\n%.200q\nwant\n%.200q", i, got, want)
		}
		if waited != "" {
			t.Fatalf("case %d: %s", i, waited)
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
