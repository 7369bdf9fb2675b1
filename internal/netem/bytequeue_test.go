package netem

import (
	"bytes"
	"testing"
)

// checkByteQueue holds b to its own bookkeeping: n counts what its
// chunks hold past head, every chunk is an unregrown lease, and an
// empty queue holds no lease, spare included.
func checkByteQueue(t testing.TB, b *ByteQueue) {
	t.Helper()
	held := -b.head
	for _, c := range b.chunks {
		if cap(*c) != inboxChunk {
			t.Fatalf("a chunk has cap %d, want %d", cap(*c), inboxChunk)
		}
		held += len(*c)
	}
	if held != b.n || b.Len() != b.n {
		t.Fatalf("chunks hold %d bytes past head, n is %d, Len %d", held, b.n, b.Len())
	}
	if b.n == 0 && (len(b.chunks) != 0 || b.spare != nil) {
		t.Fatalf("an empty queue holds %d chunks and spare %v", len(b.chunks), b.spare != nil)
	}
}

// TestByteQueueFIFOAcrossChunks pushes and takes in sizes that straddle
// the chunk boundary in every phase, and requires the bytes in the order
// they were pushed.
func TestByteQueueFIFOAcrossChunks(t *testing.T) {
	b := NewByteQueue(NewClock())
	var pushed, taken int
	push := func(k int) {
		p := make([]byte, k)
		for i := range p {
			p[i] = byte((pushed + i) % 251)
		}
		b.Push(p)
		pushed += k
	}
	take := func(k int) {
		p := make([]byte, k)
		got := b.TakeInto(p)
		if want := min(k, pushed-taken); got != want {
			t.Fatalf("took %d of %d with %d queued", got, k, pushed-taken)
		}
		for i, c := range p[:got] {
			if c != byte((taken+i)%251) {
				t.Fatalf("byte %d came out as %d", taken+i, c)
			}
		}
		taken += got
	}
	sizes := []int{1, 498, inboxChunk - 1, inboxChunk, inboxChunk + 1, 3*inboxChunk + 7, 64 << 10}
	for i, s := range sizes {
		for _, u := range sizes[i:] {
			push(s)
			push(u)
			take(u)
			checkByteQueue(t, &b)
			take(s + 1) // one more than is left past u's bytes, sometimes
			checkByteQueue(t, &b)
		}
	}
	take(pushed - taken + 1)
	if b.Len() != 0 || taken != pushed {
		t.Fatalf("%d left queued, %d of %d taken", b.Len(), taken, pushed)
	}
	checkByteQueue(t, &b)
}

// TestByteQueueCyclesItsSpare: a queue the consumer never empties holds
// one chunk and the drained one as spare, or two chunks, and never
// more: it cycles them without handing one back to its world.
func TestByteQueueCyclesItsSpare(t *testing.T) {
	clock := NewClock()
	b := NewByteQueue(clock)
	b.Push(make([]byte, inboxChunk+100))
	b.TakeInto(make([]byte, inboxChunk))
	mine := map[*[]byte]bool{b.chunks[0]: true, b.spare: true}
	unit := make([]byte, 1000) // not a divisor of the chunk size
	for range 200 {
		b.Push(unit)
		b.TakeInto(unit)
		spare := 0
		if b.spare != nil {
			spare = 1
		}
		if len(b.chunks)+spare != 2 {
			t.Fatalf("a never-empty queue holds %d chunks and %d spare, want two in all", len(b.chunks), spare)
		}
		for _, c := range b.chunks {
			if !mine[c] {
				t.Fatal("the queue took a third chunk")
			}
		}
		if out, free := inboxChunks.Out(clock), len(clock.bufs[inboxChunks.id].free); out != 2 || free != 0 {
			t.Fatalf("the world has %d chunks out and %d free, want 2 and 0", out, free)
		}
	}
	b.Release()
	checkByteQueue(t, &b)
}

// TestByteQueueReleaseReturnsEveryLease: Release empties a queue that
// holds many chunks and a spare, and every one of its leases is back on
// the world's list to be leased again without an allocation.
func TestByteQueueReleaseReturnsEveryLease(t *testing.T) {
	const chunks = 8
	clock := NewClock()
	b := NewByteQueue(clock)
	b.Push(make([]byte, chunks*inboxChunk))
	b.TakeInto(make([]byte, inboxChunk+1))
	if len(b.chunks) != chunks-1 || b.spare == nil {
		t.Fatalf("%d chunks and spare %v, want %d and a spare", len(b.chunks), b.spare != nil, chunks-1)
	}
	b.Release()
	checkByteQueue(t, &b)
	if out, free := inboxChunks.Out(clock), len(clock.bufs[inboxChunks.id].free); out != 0 || free != chunks {
		t.Fatalf("after Release the world has %d chunks out and %d free, want 0 and %d", out, free, chunks)
	}
	var leases [chunks]*[]byte
	if a := testing.AllocsPerRun(10, func() {
		for i := range leases {
			leases[i] = inboxChunks.Get(clock)
		}
		for _, l := range leases {
			inboxChunks.Put(clock, l)
		}
	}); a != 0 {
		t.Errorf("leasing %d chunks after Release allocated %v times: not every lease came back", chunks, a)
	}
	b.Push([]byte("again"))
	if got := make([]byte, 8); b.TakeInto(got) != 5 || string(got[:5]) != "again" {
		t.Fatalf("a released queue took back %q", got)
	}
	checkByteQueue(t, &b)
}

// FuzzByteQueue holds a ByteQueue to a plain []byte model over the
// push, take and release sequences the input decodes to: three bytes an
// operation, its kind and a size up to 64 KiB, four chunks. Pushes stop
// at 256 KiB queued, meek's outCap.
func FuzzByteQueue(f *testing.F) {
	f.Add([]byte{0, 0x40, 0x01, 1, 0x3f, 0xff, 1, 0x00, 0x02})
	f.Add([]byte{0, 0xff, 0xff, 0, 0x00, 0x10, 1, 0x80, 0x00, 2, 0, 0, 0, 0x01, 0xf2, 1, 0xff, 0xff})
	f.Add([]byte{0, 0x01, 0xf2, 1, 0x01, 0x00, 0, 0x01, 0xf2, 1, 0x01, 0x00, 0, 0x40, 0x00, 1, 0x40, 0x00})
	f.Fuzz(func(t *testing.T, ops []byte) {
		b := NewByteQueue(NewClock())
		var model []byte
		var pushed uint32
		buf := make([]byte, 1<<16)
		for ; len(ops) >= 3; ops = ops[3:] {
			size := int(ops[1])<<8 | int(ops[2])
			switch ops[0] % 3 {
			case 0:
				p := buf[:min(size, 1<<18-len(model))] // at most 16 chunks queued
				// No period a misplaced take could hide in.
				for i := range p {
					p[i] = byte((pushed + uint32(i)) * 2654435761 >> 24)
				}
				pushed += uint32(len(p))
				model = append(model, p...)
				b.Push(p)
			case 1:
				got := b.TakeInto(buf[:size])
				want := min(size, len(model))
				if got != want || !bytes.Equal(buf[:got], model[:want]) {
					t.Fatalf("took %d bytes, want the model's first %d", got, want)
				}
				model = model[want:]
			case 2:
				b.Release()
				model = model[:0]
			}
			if b.Len() != len(model) {
				t.Fatalf("Len %d, model holds %d", b.Len(), len(model))
			}
			checkByteQueue(t, &b)
		}
		b.Release()
	})
}
