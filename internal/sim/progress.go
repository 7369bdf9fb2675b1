package sim

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"
)

// Monitor streams per-cell progress for a campaign's world tasks: how
// many cells are queued, running, done (and of those, answered from
// cache or failed), and each running cell's virtual-time horizon. The
// harness registers every task key and reports transitions; the monitor
// prints one status line per transition to its writer (normally
// stderr), so progress never touches the deterministic report stream.
//
// A nil *Monitor is valid and ignores every call — callers wire the
// monitor only when progress output is wanted.
type Monitor struct {
	mu    sync.Mutex
	out   io.Writer
	order []string
	cells map[string]*cellState
}

type cellState struct {
	state   cellPhase
	cached  bool
	failed  bool
	horizon func() time.Duration
}

type cellPhase int

const (
	cellQueued cellPhase = iota
	cellRunning
	cellDone
)

// NewMonitor returns a monitor writing status lines to out.
func NewMonitor(out io.Writer) *Monitor {
	return &Monitor{out: out, cells: make(map[string]*cellState)}
}

// Register adds a cell in the queued state (idempotent).
func (m *Monitor) Register(key string) {
	if m == nil {
		return
	}
	m.mu.Lock()
	if _, ok := m.cells[key]; !ok {
		m.cells[key] = &cellState{}
		m.order = append(m.order, key)
	}
	m.mu.Unlock()
}

// Start marks a cell running and prints the status line.
func (m *Monitor) Start(key string) {
	m.transition(key, func(c *cellState) { c.state = cellRunning })
}

// Horizon attaches a cell's virtual-clock reader, shown while the cell
// runs. fn is called from the monitor's printing goroutine; clock reads
// must therefore be safe cross-thread (netem's Clock.Now is).
func (m *Monitor) Horizon(key string, fn func() time.Duration) {
	if m == nil {
		return
	}
	m.mu.Lock()
	if c, ok := m.cells[key]; ok {
		c.horizon = fn
	}
	m.mu.Unlock()
}

// Cached marks a cell as answered from the result cache; the following
// Finish counts it under "cached".
func (m *Monitor) Cached(key string) {
	if m == nil {
		return
	}
	m.mu.Lock()
	if c, ok := m.cells[key]; ok {
		c.cached = true
	}
	m.mu.Unlock()
}

// Finish marks a cell done (err != nil counts it failed) and prints the
// status line.
func (m *Monitor) Finish(key string, err error) {
	m.transition(key, func(c *cellState) {
		c.state = cellDone
		c.failed = err != nil
		c.horizon = nil
	})
}

func (m *Monitor) transition(key string, apply func(*cellState)) {
	if m == nil {
		return
	}
	m.mu.Lock()
	c, ok := m.cells[key]
	if !ok {
		// Transitions on unregistered keys register implicitly so the
		// monitor never silently drops a cell.
		c = &cellState{}
		m.cells[key] = c
		m.order = append(m.order, key)
	}
	apply(c)
	line := m.lineLocked()
	out := m.out
	m.mu.Unlock()
	if out != nil {
		fmt.Fprintln(out, line)
	}
}

// maxShownRunning bounds how many running cells a status line names.
const maxShownRunning = 4

func (m *Monitor) lineLocked() string {
	total := len(m.order)
	var done, cached, failed int
	var running []string
	for _, key := range m.order {
		c := m.cells[key]
		switch c.state {
		case cellDone:
			done++
			if c.cached {
				cached++
			}
			if c.failed {
				failed++
			}
		case cellRunning:
			label := key
			if c.horizon != nil {
				label += "@" + c.horizon().Truncate(time.Second).String()
			}
			running = append(running, label)
		}
	}
	sort.Strings(running)
	var b strings.Builder
	fmt.Fprintf(&b, "[cells] %d/%d done", done, total)
	if cached > 0 {
		fmt.Fprintf(&b, " (%d cached)", cached)
	}
	if failed > 0 {
		fmt.Fprintf(&b, " (%d failed)", failed)
	}
	if n := len(running); n > 0 {
		shown := running
		if len(shown) > maxShownRunning {
			shown = shown[:maxShownRunning]
		}
		fmt.Fprintf(&b, ", %d running: %s", n, strings.Join(shown, " "))
		if n > len(shown) {
			fmt.Fprintf(&b, " +%d more", n-len(shown))
		}
	}
	if queued := total - done - len(running); queued > 0 {
		fmt.Fprintf(&b, ", %d queued", queued)
	}
	return b.String()
}
