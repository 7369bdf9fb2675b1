package sim

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"time"
)

// Line returns the current status line under the monitor's lock.
func (m *Monitor) Line() string {
	if m == nil {
		return ""
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.lineLocked()
}

// TestMonitorNilSafe requires every method to be a no-op on a nil
// monitor — callers wire progress only when requested.
func TestMonitorNilSafe(t *testing.T) {
	var m *Monitor
	m.Register("a")
	m.Start("a")
	m.Horizon("a", func() time.Duration { return 0 })
	m.Cached("a")
	m.Finish("a", nil)
	if got := m.Line(); got != "" {
		t.Fatalf("nil monitor line = %q", got)
	}
}

// TestMonitorLifecycle walks one campaign's transitions through the
// status line.
func TestMonitorLifecycle(t *testing.T) {
	var out bytes.Buffer
	m := NewMonitor(&out)
	m.Register("fig4")
	m.Register("fig7:lon")
	m.Register("fig7:tor")

	if got := m.Line(); got != "[cells] 0/3 done, 3 queued" {
		t.Fatalf("queued line = %q", got)
	}

	m.Start("fig4")
	m.Horizon("fig4", func() time.Duration { return 90 * time.Second })
	if got := m.Line(); got != "[cells] 0/3 done, 1 running: fig4@1m30s, 2 queued" {
		t.Fatalf("running line = %q", got)
	}

	m.Start("fig7:lon")
	m.Cached("fig7:lon")
	m.Finish("fig7:lon", nil)
	m.Finish("fig4", nil)
	m.Start("fig7:tor")
	m.Finish("fig7:tor", errors.New("boom"))
	if got := m.Line(); got != "[cells] 3/3 done (1 cached) (1 failed)" {
		t.Fatalf("final line = %q", got)
	}

	// Every transition printed a line to the writer.
	if lines := strings.Count(out.String(), "\n"); lines != 6 {
		t.Fatalf("printed %d lines, want 6 (one per transition)", lines)
	}
}

// TestMonitorRunningBound caps the named running cells and counts the
// overflow.
func TestMonitorRunningBound(t *testing.T) {
	m := NewMonitor(nil)
	for _, k := range []string{"f", "e", "d", "c", "b", "a"} {
		m.Register(k)
		m.Start(k)
	}
	got := m.Line()
	want := "[cells] 0/6 done, 6 running: a b c d +2 more"
	if got != want {
		t.Fatalf("line = %q, want %q", got, want)
	}
}

// TestMonitorImplicitRegister keeps unregistered keys from being
// silently dropped.
func TestMonitorImplicitRegister(t *testing.T) {
	m := NewMonitor(nil)
	m.Start("ghost")
	m.Finish("ghost", nil)
	if got := m.Line(); got != "[cells] 1/1 done" {
		t.Fatalf("line = %q", got)
	}
}
