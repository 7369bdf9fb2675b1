package netem

import "sync"

// A world package may not hold sync locks: as a field, embedded, as a
// local, behind the Locker interface or inside a Cond.
type guarded struct {
	mu sync.Mutex // want `sync\.Mutex in world package sandbox/netem.*guards nothing.*\[nolocks\]`
	n  int
}

type embedded struct {
	sync.RWMutex // want `sync\.RWMutex in world package sandbox/netem.*\[nolocks\]`
	n            int
}

func local() int {
	var mu sync.Mutex // want `sync\.Mutex in world package sandbox/netem.*\[nolocks\]`
	mu.Lock()
	defer mu.Unlock()
	return 1
}

func withLocker(l sync.Locker) *sync.Cond { // want `sync\.Locker in world package` `sync\.Cond in world package`
	return sync.NewCond(l)
}

// Pools and Once values are not locks a world can contend on.
var bufs = sync.Pool{New: func() any { return new([512]byte) }}

// registry is shared by every world of the process and filled from
// their drivers' goroutines: the directive records why it stays.
var (
	//simlint:allow nolocks -- sandbox fixture: process-wide registry shared across worlds
	regMu    sync.Mutex
	registry = map[string]int{}
)
