package web

import (
	"bufio"
	"bytes"
	"io"
	"slices"
	"testing"

	"ptperf/internal/netem"
	"ptperf/internal/sim"
)

// chunkConn is an origin's conn end on which every read returns the
// next chunk, or what of it fits, and every write is taken whole. It
// records the span of each call. Once the chunks are out, an event read
// ends the stream, or with wait set waits for more.
type chunkConn struct {
	netem.Stream
	chunks [][]byte
	reads  []int
	writes []int
	wrote  []byte
	wait   bool
}

func (c *chunkConn) ReadEvent(p []byte, again func()) (int, error, bool) {
	if c.wait && len(c.chunks) == 0 {
		return 0, nil, false
	}
	n, err := c.Read(p)
	return n, err, true
}

// ReadFullEvent reads chunks until p is full, waiting, with wait set,
// where ReadEvent would.
func (c *chunkConn) ReadFullEvent(p []byte, again func()) (int, error, bool) {
	n := 0
	for n < len(p) {
		m, err, done := c.ReadEvent(p[n:], again)
		if n += m; !done || err != nil {
			return n, err, done
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

func (c *chunkConn) WriteEvent(p []byte, again func()) (int, error, bool) {
	n, err := c.Write(p)
	return n, err, true
}

func (c *chunkConn) Write(p []byte) (int, error) {
	c.writes = append(c.writes, len(p))
	c.wrote = append(c.wrote, p...)
	return len(p), nil
}

func (c *chunkConn) Close() error { return nil }

// readLine returns the next line of r with its terminator, valid until
// the next read of r, as the origin took lines before it ran on clock
// events. Only a line longer than r's buffer is copied.
func readLine(r *bufio.Reader) ([]byte, error) {
	line, err := r.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		head := append([]byte(nil), line...)
		line, err = r.ReadBytes('\n')
		line = append(head, line...)
	}
	return line, err
}

// readResponse reads a response header off r a line at a time, as the
// fetch client reads one off its conn, and parses it with ReadResponse.
func readResponse(r *bufio.Reader) (Response, error) {
	var head []byte
	for {
		line, err := readLine(r)
		head = append(head, line...)
		if resp, n, perr := ReadResponse(head); perr != nil || n > 0 {
			return resp, perr
		}
		if err != nil {
			return Response{}, err
		}
	}
}

// TestServedReadsAsBufioDid: over keep-alive requests of random paths,
// some longer than the read buffer, arriving in random chunks, the
// origin asks for the spans a 4 KiB bufio.Reader asked for while it
// read them a line at a time.
func TestServedReadsAsBufioDid(t *testing.T) {
	rng := sim.NewRand(4)
	for i := 0; i < 300; i++ {
		var wire bytes.Buffer
		for k := 1 + rng.Intn(5); k > 0; k-- {
			n := 1 + rng.Intn(200)
			if rng.Intn(4) == 0 {
				n = 1 + rng.Intn(10000)
			}
			WriteRequest(&wire, "/"+randomPath(rng, n), false)
		}
		chunks := func() [][]byte {
			var cs [][]byte
			for b := wire.Bytes(); len(b) > 0; {
				k := min(len(b), 1+rng.Intn(6000))
				cs, b = append(cs, slices.Clone(b[:k])), b[k:]
			}
			return cs
		}()
		ref := &chunkConn{chunks: slices.Clone(chunks)}
		br := bufio.NewReaderSize(ref, 4<<10)
		for err := error(nil); err == nil; {
			for k := 0; k < 4 && err == nil; k++ {
				_, err = readLine(br)
			}
		}
		c := &chunkConn{chunks: chunks}
		(&Origin{}).serveConn(c)
		if !slices.Equal(c.reads, ref.reads) {
			t.Fatalf("case %d: reads of %v, a bufio.Reader's %v", i, c.reads, ref.reads)
		}
	}
}

// TestServedWritesAsBufioDid: for a random header, body prefix and
// body length, the origin makes the writes a 32 KiB bufio.Writer made
// of the header, the prefix and the 64 KiB pattern chunks after it,
// with the same bytes.
func TestServedWritesAsBufioDid(t *testing.T) {
	rng := sim.NewRand(5)
	for i := 0; i < 2000; i++ {
		n := rng.Intn(300 << 10)
		prefix := make([]byte, min(n, rng.Intn(80<<10)))
		switch rng.Intn(4) {
		case 0: // the header and the prefix fill the buffer exactly
			n = 40000 + rng.Intn(200000)
			prefix = make([]byte, 32<<10-len(appendResponseHeader(nil, 200, int64(n))))
		case 1: // the header and the whole body fill it exactly
			n = 32<<10 - len(appendResponseHeader(nil, 200, 10000))
			prefix = make([]byte, rng.Intn(n))
		}
		rng.Read(prefix)
		header := appendResponseHeader(nil, 200, int64(n))

		ref := &chunkConn{}
		w := bufio.NewWriterSize(ref, 32<<10)
		w.Write(header)
		if len(prefix) > 0 {
			w.Write(prefix)
		}
		for left := n - len(prefix); left > 0; {
			k := min(left, len(bodyPattern))
			w.Write(bodyPattern[:k])
			left -= k
		}
		w.Flush()

		c := &chunkConn{}
		s := &served{conn: c, out: new([32 << 10]byte)}
		s.n = len(appendResponseHeader(s.out[:0], 200, int64(n)))
		s.body, s.left = prefix, n-len(prefix)
		if !s.write() {
			t.Fatalf("case %d: the response was not written whole", i)
		}
		if !slices.Equal(c.writes, ref.writes) || !bytes.Equal(c.wrote, ref.wrote) {
			t.Fatalf("case %d (prefix %d, body %d): writes of %v, a bufio.Writer's %v", i, len(prefix), n, c.writes, ref.writes)
		}
	}
}

// TestServedHoldsNoArrayWhileWaiting: a served conn waiting for its next
// request holds neither of its arrays, and one waiting for the rest of a
// request holds only the array its first bytes are in.
func TestServedHoldsNoArrayWhileWaiting(t *testing.T) {
	var req bytes.Buffer
	WriteRequest(&req, FilePath(100), false)
	c := &chunkConn{chunks: [][]byte{req.Bytes(), req.Bytes()[:10]}, wait: true}
	s := &served{o: &Origin{}, conn: c}
	s.readFn, s.resumeFn = s.read, s.resume
	s.read()
	if s.in == nil || s.out != nil {
		t.Fatalf("waiting for the rest of a request: holds in %v, out %v; want in only", s.in != nil, s.out != nil)
	}
	c.chunks = append(c.chunks, req.Bytes()[10:])
	s.readFn() // the read's continuation, once the rest has come
	if s.in != nil || s.out != nil {
		t.Fatalf("waiting for the next request: holds in %v, out %v; want neither", s.in != nil, s.out != nil)
	}
	resp := append(appendResponseHeader(nil, 200, 100), bodyPattern[:100]...)
	if want := append(slices.Clone(resp), resp...); !bytes.Equal(c.wrote, want) {
		t.Fatalf("wrote %q, want two responses %q", c.wrote, want)
	}
}
