package netem

import (
	"io"
	"slices"
	"time"
)

// Inbox is the read half of a simulated byte stream that is not a netem
// conn: the queue its mechanism delivers into and its application reads
// from, with the read deadline. pt.Stream and tor.Stream embed it, so
// its reads and the three deadline setters are theirs.
// Deliver, End, Drop and Wake are for the stream's own mechanism.
//
// Reads drain what was delivered before they report the end: io.EOF
// after End, or at once, with the queue released, the error of a Drop.
type Inbox struct {
	netDeadlines
	cond Cond
	// unread holds the delivered bytes no read has taken yet.
	unread ByteQueue
	// fill, while a threshold read waits, is the rest of its request:
	// deliveries fill it in place of the queue (filled bytes so far)
	// and wake the reader only once it is full.
	fill   []byte
	filled int
	// end is nil while bytes may still arrive, io.EOF once End was
	// called, or the error of a Drop.
	end error
	rdl time.Duration // the instant reads time out, noDeadline for none
}

// NewInbox returns an open, empty inbox parking its reader on clock.
func NewInbox(clock *Clock) Inbox {
	return Inbox{cond: Cond{clock: clock}, unread: NewByteQueue(clock), rdl: noDeadline}
}

// Read implements net.Conn's Read.
func (q *Inbox) Read(p []byte) (int, error) {
	n, err, _ := q.read(p, 1, nil)
	return n, err
}

// ReadEvent is Read for an event callback, with Conn.ReadEvent's
// contract.
func (q *Inbox) ReadEvent(p []byte, again func()) (n int, err error, done bool) {
	return q.read(p, 1, again)
}

// ReadFullEvent is the threshold read, with Conn.ReadFullEvent's
// contract: a bulk reader (the fetch body copy) waits once per request,
// not per delivery, and while it waits deliveries fill p[n:] in place.
func (q *Inbox) ReadFullEvent(p []byte, again func()) (n int, err error, done bool) {
	return q.read(p, len(p), again)
}

// read is the one read path: it returns once want bytes are in p, or
// with what there is when the inbox ends or the read timeout passes. A
// threshold read takes what is queued and waits with the rest of its
// request as fill, which the read going on counts. With again non-nil
// it is an event read, which queues again where it would park.
func (q *Inbox) read(p []byte, want int, again func()) (int, error, bool) {
	n, want := 0, min(want, len(p))
	for {
		n += q.filled
		q.fill, q.filled = nil, 0
		if q.end != nil && q.end != io.EOF {
			return n, q.end, true
		}
		n += q.unread.TakeInto(p[n:])
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
			return n, nil, false
		}
	}
}

// Deliver appends p to the read side, into a waiting threshold read's
// request while it has room and then to the queue, and wakes the reader
// unless it is a threshold read still short of its request. Bytes
// arriving after the inbox ended are dropped: nobody will read them.
func (q *Inbox) Deliver(p []byte) {
	if q.end != nil {
		return
	}
	if len(q.fill) > 0 && q.unread.Len() == 0 {
		k := copy(q.fill, p)
		q.fill, q.filled, p = q.fill[k:], q.filled+k, p[k:]
	}
	q.unread.Push(p)
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

// Drop ends the inbox with err and releases the queue: every read then
// returns err at once, a waiting one woken with what it took.
func (q *Inbox) Drop(err error) {
	q.end = err
	q.unread.Release()
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

// ByteQueue is a FIFO of bytes held in chunks leased from its world
// (inboxChunks): Inbox's unread bytes and pt.Stream's unsent ones. The
// queued bytes are chunks[0][head:] and every later chunk, n in all.
// Push fills a chunk before it leases the next and TakeInto returns each
// lease once drained, so a consumer slower than its producer costs a
// lease per chunk of backlog, and no array regrows or copies what it
// holds. While bytes remain, a drained chunk waits as spare for the next
// lease: a queue that is never empty cycles two chunks without the
// world's list. A queue from NewByteQueue is empty and holds no lease.
type ByteQueue struct {
	clock   *Clock
	chunks  []*[]byte
	head, n int
	spare   *[]byte
}

// NewByteQueue returns an empty queue leasing from clock's world.
func NewByteQueue(clock *Clock) ByteQueue { return ByteQueue{clock: clock} }

// inboxChunk is what one chunk of a ByteQueue holds. A backlog is
// mostly a few cells or one poll's worth, so a chunk a quarter of a
// fetch body's 64 KiB threshold read keeps a short queue small; a long
// one takes more leases, none of them copied.
const inboxChunk = 16 << 10

// inboxChunks are the chunks of every ByteQueue.
var inboxChunks = NewBufClass("chunk", func() *[]byte {
	b := make([]byte, 0, inboxChunk)
	return &b
})

// Len counts the queued bytes.
func (b *ByteQueue) Len() int { return b.n }

// Push appends p to the queue.
func (b *ByteQueue) Push(p []byte) {
	for b.n += len(p); len(p) > 0; {
		if k := len(b.chunks); k == 0 || len(*b.chunks[k-1]) == inboxChunk {
			c := b.spare
			if b.spare = nil; c == nil {
				c = inboxChunks.Get(b.clock)
			}
			b.chunks = append(b.chunks, c)
		}
		last := b.chunks[len(b.chunks)-1]
		k := min(len(p), inboxChunk-len(*last))
		*last = append(*last, p[:k]...)
		p = p[k:]
	}
}

// TakeInto moves up to len(p) queued bytes into p and returns how many,
// returning each chunk's lease as it drains.
func (b *ByteQueue) TakeInto(p []byte) int {
	total := 0
	for len(p) > 0 && b.n > 0 {
		first := b.chunks[0]
		k := copy(p, (*first)[b.head:])
		p, total, b.n = p[k:], total+k, b.n-k
		if b.head += k; b.head == len(*first) {
			b.dropChunk()
		}
	}
	return total
}

// Release empties the queue and returns every lease to the world.
func (b *ByteQueue) Release() {
	b.n = 0
	for len(b.chunks) > 0 {
		b.dropChunk()
	}
}

// dropChunk drops the drained first chunk, the spare while bytes
// remain, and returns it and the spare to the world once none do; the
// list keeps its array.
func (b *ByteQueue) dropChunk() {
	c := b.chunks[0]
	*c = (*c)[:0]
	b.chunks, b.head = slices.Delete(b.chunks, 0, 1), 0
	if b.n > 0 && b.spare == nil {
		b.spare = c
		return
	}
	inboxChunks.Put(b.clock, c)
	if b.n == 0 && b.spare != nil {
		inboxChunks.Put(b.clock, b.spare)
		b.spare = nil
	}
}
