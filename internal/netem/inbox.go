package netem

import (
	"io"
	"slices"
	"sync"
	"time"
)

// Inbox is the read half of a simulated byte stream that is not a netem
// conn: the queue its mechanism delivers into and its application reads
// from, with the read deadline. pt.Stream and tor.Stream embed it, so
// Read, ReadFull, ReadEvent and the three deadline setters are theirs.
// Deliver, End, Drop and Wake are for the stream's own mechanism.
//
// Reads drain what was delivered before they report the end: io.EOF
// after End, or at once, with the queue released, the error of a Drop.
type Inbox struct {
	netDeadlines
	cond Cond
	// The unread bytes are chunks[0][head:] and every later chunk, n in
	// all. Each chunk is an inboxChunkPool lease that Deliver fills
	// before it takes the next and a read returns once drained, so a
	// reader slower than its stream costs a lease per chunk of backlog
	// and no copy. While bytes remain, a drained chunk waits as spare
	// for the next lease: a queue that is never empty cycles two chunks
	// without the pool.
	chunks  []*[]byte
	head, n int
	spare   *[]byte
	// fill, while a ReadFull is parked, is the rest of its request:
	// deliveries fill it in place of the queue (filled bytes so far)
	// and wake the reader only once it is full.
	fill   []byte
	filled int
	// end is nil while bytes may still arrive, io.EOF once End was
	// called, or the error of a Drop.
	end error
	rdl time.Duration // the instant reads time out, noDeadline for none
}

// inboxChunk is what one chunk of an Inbox holds: one threshold read of
// the fetch body copy (64 KiB) and the two tor cells that land while
// its reader wakes.
const inboxChunk = 64<<10 + 2*514

// inboxChunkPool leases the chunks of every Inbox.
var inboxChunkPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, inboxChunk)
		return &b
	},
}

// NewInbox returns an open, empty inbox parking its reader on clock.
func NewInbox(clock *Clock) Inbox {
	return Inbox{cond: Cond{clock: clock}, rdl: noDeadline}
}

// Read implements net.Conn's Read.
func (q *Inbox) Read(p []byte) (int, error) {
	n, err, _ := q.read(p, 1, nil)
	return n, err
}

// ReadFull is FullReader's threshold read: it parks until len(p) bytes
// have been delivered rather than waking for each delivery on the way,
// so a bulk reader (the fetch body copy) parks once per request;
// n < len(p) only with an error.
func (q *Inbox) ReadFull(p []byte) (int, error) {
	n, err, _ := q.read(p, len(p), nil)
	return n, err
}

// ReadEvent is Read for an event callback, with Conn.ReadEvent's
// contract.
func (q *Inbox) ReadEvent(p []byte, again func()) (n int, err error, done bool) {
	return q.read(p, 1, again)
}

// read is the one read path: it returns once want bytes are in p, or
// with what there is when the inbox ends or the read timeout passes. A
// ReadFull takes what is queued and parks with the rest of its request
// as fill. With again non-nil it is an event read (want 1), which
// queues again where it would park.
func (q *Inbox) read(p []byte, want int, again func()) (int, error, bool) {
	n, want := 0, min(want, len(p))
	for {
		if q.end != nil && q.end != io.EOF {
			return 0, q.end, true
		}
		n += q.take(p[n:])
		switch {
		case n >= want:
			return n, nil, true
		case q.end != nil:
			return n, io.EOF, true
		case vtExpired(q.cond.clock, q.rdl):
			return n, ErrTimeout, true
		}
		if want > 1 {
			q.fill = p[n:want]
		}
		if _, queued := q.cond.wait(q.rdl, again); queued {
			return 0, nil, false
		}
		n += q.filled
		q.fill, q.filled = nil, 0
	}
}

// take moves up to len(p) queued bytes into p, returning each chunk's
// lease as it drains.
func (q *Inbox) take(p []byte) int {
	total := 0
	for len(p) > 0 && q.n > 0 {
		first := q.chunks[0]
		k := copy(p, (*first)[q.head:])
		p, total, q.n = p[k:], total+k, q.n-k
		if q.head += k; q.head == len(*first) {
			q.dropChunk()
		}
	}
	return total
}

// dropChunk drops the drained first chunk, the spare while bytes
// remain, and returns it and the spare to the pool once none do; the
// list keeps its array.
func (q *Inbox) dropChunk() {
	c := q.chunks[0]
	*c = (*c)[:0]
	q.chunks, q.head = slices.Delete(q.chunks, 0, 1), 0
	if q.n > 0 && q.spare == nil {
		q.spare = c
		return
	}
	inboxChunkPool.Put(c)
	if q.n == 0 && q.spare != nil {
		inboxChunkPool.Put(q.spare)
		q.spare = nil
	}
}

// Deliver appends p to the read side, into a parked ReadFull's request
// while it has room and then to the queue, and wakes the reader unless
// it is a ReadFull still short of its request. Bytes arriving after
// the inbox ended are dropped: nobody will read them.
func (q *Inbox) Deliver(p []byte) {
	if q.end != nil {
		return
	}
	if len(q.fill) > 0 && q.n == 0 {
		k := copy(q.fill, p)
		q.fill, q.filled, p = q.fill[k:], q.filled+k, p[k:]
	}
	for q.n += len(p); len(p) > 0; {
		if k := len(q.chunks); k == 0 || len(*q.chunks[k-1]) == inboxChunk {
			c := q.spare
			if q.spare = nil; c == nil {
				c = inboxChunkPool.Get().(*[]byte)
			}
			q.chunks = append(q.chunks, c)
		}
		last := q.chunks[len(q.chunks)-1]
		k := min(len(p), inboxChunk-len(*last))
		*last = append(*last, p[:k]...)
		p = p[k:]
	}
	if len(q.fill) == 0 {
		q.cond.Broadcast()
	}
}

// End marks that nothing more will be delivered, so reads drain the
// queue and then report io.EOF, and wakes the reader.
func (q *Inbox) End() {
	if q.end == nil {
		q.end = io.EOF
	}
	q.cond.Broadcast()
}

// Drop ends the inbox with err: the queue is released, and every read
// from now on returns err at once. It wakes the reader.
func (q *Inbox) Drop(err error) {
	q.end, q.n = err, 0
	for len(q.chunks) > 0 {
		q.dropChunk()
	}
	q.cond.Broadcast()
}

// Wake wakes a parked reader to check its request again.
func (q *Inbox) Wake() { q.cond.Broadcast() }

// SetReadTimeout implements netem.Stream: reads time out once d has
// passed from now. A parked read observes the new timeout at once. The
// stream's writes are paced by its mechanism and never time out.
func (q *Inbox) SetReadTimeout(d time.Duration) error {
	q.rdl = readDeadline(q.cond.clock, d)
	q.cond.Broadcast()
	return nil
}
