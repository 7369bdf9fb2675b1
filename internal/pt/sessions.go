package pt

import (
	"time"

	"ptperf/internal/netem"
)

// StaleAfter is how long a tunnel server keeps a session whose client
// has stopped polling before cutting it — meek-server's 120 s session
// staleness, which dnstt's turbotunnel sessions mirror. It must
// comfortably exceed not just the clients' idle-poll ceilings (5 s and
// ~1.5 s) but the worst queueing a live client's polls can suffer behind
// a censor throttle backlog, or working-but-throttled tunnels get cut
// mid-transfer.
const StaleAfter = 120 * time.Second

// Sessions is the keyed get-or-create table behind every tunnel server
// that learns of a session from its first frame. Touch creates the
// value on first sight and stamps the session as seen. A session quiet
// for StaleAfter is expired — the callback cuts its stream, which sends
// EOF into the handler and tears the spliced Tor chain down; without
// this a client that vanishes (crash, censor cut, parked circuit) leaks
// the whole server-side circuit forever. The expired entry stays one
// more quiet window as a tombstone, so a straggler frame still finds
// the dead session instead of opening a fresh one, and is then deleted.
//
// Staleness is checked every StaleAfter from the session's creation by
// one inline clock event per table, not a goroutine per session.
type Sessions[K comparable, V any] struct {
	clock  *netem.Clock
	open   func(K) V
	expire func(V)

	byKey map[K]*session[K, V]
	// due holds the sessions in the order their next checks fire. Every
	// check is StaleAfter after the previous one, so appending keeps it
	// sorted and sessions are always visited in creation order.
	due []*session[K, V]
}

type session[K comparable, V any] struct {
	key      K
	val      V
	lastSeen time.Duration
	checkAt  time.Duration
	expired  bool
	removed  bool
}

// NewSessions returns an empty table. open builds a session's value on
// first sight. expire, if not nil, runs inside a
// clock event when a session goes stale and must never park.
func NewSessions[K comparable, V any](clock *netem.Clock, open func(K) V, expire func(V)) *Sessions[K, V] {
	return &Sessions[K, V]{clock: clock, open: open, expire: expire, byKey: make(map[K]*session[K, V])}
}

// Touch returns the session's value, creating it if the key is new, and
// stamps the session as seen now.
func (t *Sessions[K, V]) Touch(key K) V {
	now := t.clock.Now()
	e := t.byKey[key]
	if e == nil {
		e = &session[K, V]{key: key, val: t.open(key), checkAt: now + StaleAfter}
		t.byKey[key] = e
		t.due = append(t.due, e)
		if len(t.due) == 1 {
			t.clock.EventAt(e.checkAt, t.sweep)
		}
	}
	e.lastSeen = now
	return e.val
}

// Remove forgets a session at once, without expiring it.
func (t *Sessions[K, V]) Remove(key K) {
	if e := t.byKey[key]; e != nil {
		e.removed = true
		delete(t.byKey, key)
	}
}

// sweep is the staleness event: it runs every check that is due and
// re-arms itself for the next one.
func (t *Sessions[K, V]) sweep() {
	now := t.clock.Now()
	var stale []V
	for len(t.due) > 0 && t.due[0].checkAt <= now {
		e := t.due[0]
		t.due = t.due[1:]
		quiet := now-e.lastSeen >= StaleAfter
		switch {
		case e.removed:
			continue
		case quiet && e.expired:
			delete(t.byKey, e.key)
			continue
		case quiet:
			e.expired = true
			stale = append(stale, e.val)
		}
		e.checkAt += StaleAfter
		t.due = append(t.due, e)
	}
	if len(t.due) > 0 {
		t.clock.EventAt(t.due[0].checkAt, t.sweep)
	}
	// Expire after the sweep: the callback may Touch or Remove.
	if t.expire != nil {
		for _, v := range stale {
			t.expire(v)
		}
	}
}
