package marionette

import (
	"bytes"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"ptperf/internal/testkit/streamtest"
)

func TestFrameRoundTrip(t *testing.T) {
	// One write buffer and one reader for every frame, like a conn's.
	var wire bytes.Buffer
	var wbuf []byte
	frames := frameReader{r: &wire}
	f := func(cover string, payload []byte) bool {
		if len(cover) > 60000 || len(payload) > 60000 {
			return true
		}
		wbuf = appendFrame(wbuf[:0], cover, payload, false)
		wire.Write(wbuf)
		gotCover, gotPayload, fin, err := frames.next()
		if err != nil || fin {
			return false
		}
		return string(gotCover) == cover && bytes.Equal(gotPayload, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestFinFrame(t *testing.T) {
	buf := bytes.NewBuffer(appendFrame(nil, "QUIT\r\n", nil, true))
	cover, payload, fin, err := (&frameReader{r: buf}).next()
	if err != nil {
		t.Fatal(err)
	}
	if !fin || payload != nil {
		t.Fatalf("fin=%v payload=%v", fin, payload)
	}
	if string(cover) != "QUIT\r\n" {
		t.Fatalf("fin cover = %q", cover)
	}
}

func TestModelValidation(t *testing.T) {
	cases := map[string]*Model{
		"no start": {Data: "d", States: map[string][]Transition{"d": {{To: "d", Weight: 1}}}},
		"missing start state": {Start: "s", Data: "d", States: map[string][]Transition{
			"d": {{To: "d", Weight: 1}},
		}},
		"bad weight": {Start: "s", Data: "s", States: map[string][]Transition{
			"s": {{To: "s", Weight: 0}},
		}},
		"dangling target": {Start: "s", Data: "s", States: map[string][]Transition{
			"s": {{To: "nowhere", Weight: 1}},
		}},
		// A full frame's payload length would read as the FIN.
		"capacity 0xffff": {Start: "s", Data: "s", States: map[string][]Transition{
			"s": {{To: "s", Weight: 1, Act: Action{Capacity: 0xffff}}},
		}},
		// The cover's length would wrap and mis-cut every later frame.
		"cover over 0xffff": {Start: "s", Data: "s", States: map[string][]Transition{
			"s": {{To: "s", Weight: 1, Act: Action{Cover: strings.Repeat("x", 0x10000)}}},
		}},
	}
	for name, m := range cases {
		if err := m.Validate(); err == nil {
			t.Errorf("%s: expected validation failure", name)
		}
	}
	if err := FTPWithCapacity(DefaultCapacity).Validate(); err != nil {
		t.Fatalf("FTP model invalid: %v", err)
	}
	widest := &Model{Start: "s", Data: "s", States: map[string][]Transition{
		"s": {{To: "s", Weight: 1, Act: Action{Cover: strings.Repeat("x", 0xffff), Capacity: 0xfffe}}},
	}}
	if err := widest.Validate(); err != nil {
		t.Fatalf("the widest frame's model invalid: %v", err)
	}
}

func TestFTPWithCapacity(t *testing.T) {
	m := FTPWithCapacity(64)
	found := false
	for _, tr := range m.States[m.Data] {
		if tr.Act.Capacity == 64 {
			found = true
		}
		if tr.Act.Capacity > 64 {
			t.Fatalf("capacity leak: %d", tr.Act.Capacity)
		}
	}
	if !found {
		t.Fatal("no data transition with the requested capacity")
	}
	if m2 := FTPWithCapacity(0); m2.States[m2.Data][0].Act.Capacity != DefaultCapacity {
		t.Fatal("zero capacity must fall back to the default")
	}
}

func TestPickRespectsWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ts := []Transition{
		{To: "a", Weight: 0.9},
		{To: "b", Weight: 0.1},
	}
	counts := map[string]int{}
	for i := 0; i < 5000; i++ {
		counts[pick(rng, ts).To]++
	}
	if counts["a"] < 5*counts["b"] {
		t.Fatalf("weighting off: %v", counts)
	}
}

func TestModelStationaryThroughputBound(t *testing.T) {
	// The FTP model's data loop can carry at most capacity bytes per
	// min-delay transition: verify the advertised pacing is what makes
	// marionette slow.
	m := FTPWithCapacity(DefaultCapacity)
	var bestRate float64
	for _, tr := range m.States[m.Data] {
		if tr.Act.Capacity == 0 {
			continue
		}
		rate := float64(tr.Act.Capacity) / tr.MinDelay.Seconds()
		if rate > bestRate {
			bestRate = rate
		}
	}
	if bestRate > 64<<10 {
		t.Fatalf("data loop too fast (%.0f B/s) to reproduce the paper's marionette", bestRate)
	}
	if bestRate < 1<<10 {
		t.Fatalf("data loop too slow (%.0f B/s) to ever finish a page", bestRate)
	}
	_ = time.Second
}

// TestFramesBuiltInPlace: once its world's frame list holds an array, a
// further conn fires a data transition, its cover carrying a full
// capacity of the stream, with no allocation. A conn that kept arrays of
// its own grew them for its first frame. Each fire's walk draws its next
// transition, whose event holds a clock waiter for an hour, so the
// world's lists are filled by twice as many fires as are measured.
func TestFramesBuiltInPlace(t *testing.T) {
	const runs = 4
	const primed = 2 * (runs + 1)
	n, conns, peers := streamtest.Pairs(t, 0, primed+runs+1)
	clock := n.Clock()
	xfer := Transition{To: "xfer", Weight: 1, Act: Action{Cover: "APPE upload.jpg\r\n", Capacity: DefaultCapacity}, MinDelay: time.Hour, MaxDelay: time.Hour}
	model := &Model{Start: "xfer", Data: "xfer", States: map[string][]Transition{"xfer": {xfer}}}
	payload := bytes.Repeat([]byte("d"), DefaultCapacity)
	walks := make([]*marionetteConn, len(conns))
	got := 0
	for k, c := range conns {
		walks[k] = newConn(model, c, clock, int64(k))
		walks[k].Write(payload)
		peers[k].SetReadSink(func(data []byte, base *[]byte, pool *sync.Pool, _ error) {
			got += len(data)
			clock.Recycle(pool, base)
		})
	}
	clock.Sleep(time.Millisecond) // every walk draws its first transition, due in an hour
	fire := func() {
		walks[0].fire()
		walks = walks[1:]
	}
	for range primed {
		fire()
	}
	clock.Sleep(time.Second) // the peers read the frames and their segments go back
	if allocs := testing.AllocsPerRun(runs, fire); allocs != 0 {
		t.Fatalf("a further conn's frame allocated %v objects, want 0", allocs)
	}
	frame := len(appendFrame(nil, xfer.Act.Cover, payload, false))
	if clock.Sleep(time.Second); got != len(conns)*frame {
		t.Fatalf("the peers read %d bytes, want %d frames of %d", got, len(conns), frame)
	}
}
