// Package netem provides the virtual network substrate for the PTPerf
// simulation: named hosts placed in geographic locations, listeners and
// dialers producing Stream values whose delivery is shaped by
// propagation latency, token-bucket bandwidth (shared per host, which is
// what models relay load), jitter and loss.
//
// All protocol stacks in this repository (Tor, the twelve pluggable
// transports, the web origin) run unmodified on top of these conns.
//
// Time is virtual and discrete-event: every latency and rate in the
// simulation is expressed in virtual seconds, but no goroutine ever
// sleeps in real time. The Clock keeps a min-heap of pending virtual
// timers and a registry of simulation goroutines; when every registered
// goroutine is parked in a scheduler wait, the clock jumps to the
// earliest timer and wakes its owner. Campaigns therefore execute at CPU
// speed, reported durations carry no OS-scheduler noise, and identical
// seeds produce bit-identical results.
//
// Simulation goroutines (Clock.Go) are coroutines of the driver, the
// plain goroutine that built the network, so a hand-over wakes no OS
// thread and a panic on one comes out of the driver's wait. That takes a
// go 1.23 toolchain; go.mod says why its go line says less.
//
// A world has an end: Clock.Shutdown, on the driver, stops every
// simulation goroutine where it is parked and lets it unwind through its
// deferred calls (testbed.World.Close calls it). A network that is only
// dropped keeps its goroutines until the process exits. See DESIGN.md
// ("World lifetime").
//
// Exactly one goroutine of a world runs at a time and a park is the only
// point at which another can, so nothing in this package (or in anything
// built on it) takes a lock; Clock.Now is the only value another
// goroutine may read. See DESIGN.md ("Blocked/runnable accounting",
// "Cross-world isolation").
//
// Pure data-plane consumers need not be goroutines at all: Clock.EventAt
// runs a callback inline on the driver's dispatch loop at a virtual
// instant, Conn.SetReadSink delivers each arrived segment to an inline
// callback at exactly its arrival time, and Conn.ReadFullEvent wakes a
// record-structured reader once per request instead of once per segment.
// Event callbacks must never park — they use the event forms
// (Cond.WaitEvent, Mutex.LockEvent, Chan.RecvEvent, Conn.ReadEvent,
// Conn.WriteEvent), whose continuation runs where a parked goroutine
// would have resumed, or a refusal that never waits (Conn.TryWrite,
// Chan.TrySend) and further EventAt arms; Clock.Go takes work that must
// park. Conn.TryWriteOwned, the one write that hands a buffer over, is
// the relay flush pass's refusal write.
// See DESIGN.md ("Inline event execution") for the architecture and the
// rules simulation code must follow (spawn via Clock.Go, block only in
// scheduler-aware primitives). These rules are machine-checked:
// tools/simlint runs in CI as a go vet tool and rejects wall-clock
// reads, raw go statements, unseeded randomness, parking calls
// reachable from event callbacks and sync locks in world packages — see
// DESIGN.md ("Static enforcement
// of the determinism contract").
package netem
