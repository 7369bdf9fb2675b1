// Package ptperf is the root of the PTPerf reproduction: a simulated
// re-implementation of "PTPerf: On the Performance Evaluation of Tor
// Pluggable Transports" (IMC '23). See README.md for the architecture
// and cmd/ptperf for the experiment runner; the per-artifact benchmarks
// live in bench_test.go.
//
// Time in the simulation is virtual and discrete-event: internal/netem
// keeps a min-heap of pending virtual timers and advances the clock
// only when every simulation goroutine is parked, so campaigns run at
// CPU speed and identical seeds produce bit-identical reports. See
// DESIGN.md for the scheduler architecture and the rules simulation
// code must follow. Those rules are enforced statically: tools/simlint,
// a go vet tool run by CI's lint job, rejects wall-clock reads, unseeded
// randomness, raw go statements in simulation packages, unsorted map
// iteration in render code, and parking calls reachable from inline
// event callbacks (DESIGN.md "Static enforcement of the determinism
// contract").
//
// Campaigns are additionally sharded across worlds (internal/sim): each
// sweep scenario cell, experiment world and client location is an
// independent world task with its own virtual clock and splitmix64-
// derived seed stream, and up to -jobs of them (default: all cores) run
// on real OS parallelism. Reports are assembled in canonical order
// after join, so "-jobs 1" and "-jobs N" render byte-identical bytes —
// parallelism only buys wall-clock time. See DESIGN.md's "Parallel
// execution" section.
//
// Beyond the paper's artifacts, internal/censor adds a programmable
// adversary on the virtual paths: named scenarios (throttle-surge,
// lossy-path, bridge-block, snowflake-surge, rst-injection,
// evening-congestion, origin-throttle) apply time-windowed
// throttling, loss, connection resets and endpoint blocking, and the
// harness's "sweep" experiment crosses them with every transport
// against the clean baseline. Run "ptperf -list" for scenario ids and
// "ptperf -exp sweep" for the matrix; see DESIGN.md's "Censor &
// scenario layer" for the interception architecture and determinism
// rules.
//
// Relays schedule, they don't just forward: internal/tor's cell
// scheduler gives every circuit a per-circuit output queue, picks the
// quietest circuit by a decaying cell count (tor's
// CircuitPriorityHalflife EWMA), and budgets each flush pass by the
// relay's bandwidth and the downstream link's writable window
// (KIST-style, via netem.Conn.WriteBudget) — so relay-side contention
// is modeled and measurable instead of invisible. The guard-contention
// scenario family (testbed.ContentionLevels) shares the measurement
// guard with N bulk competitors, and "ptperf -exp contention" crosses
// {tor,obfs4,webtunnel} × {competitor load}, reporting queueing delay
// and download/TTFB boxes vs the uncontended baseline plus a FIFO
// (pre-KIST) comparison cell. See DESIGN.md's "Relay scheduling &
// contention".
//
// Infrastructure also simply breaks: internal/faults injects scheduled
// relay crashes and restarts, link flaps, and directory churn into any
// world (testbed.Options.FaultSpec), all compiled onto the virtual
// clock so fault worlds stay deterministic. The Tor client recovers
// like the real one — bounded circuit-build retries with exponential
// jittered backoff (tor.RetryPolicy), stream re-attach, guard
// probation that decays instead of marking flapped guards bad forever,
// and resumable bulk downloads (?from= offsets) — and every recovery
// action is counted (tor.RecoveryStats). "ptperf -exp churn" crosses
// {tor,obfs4,webtunnel,snowflake} with relay-churn rates against the
// fault-free baseline. See DESIGN.md's "Failure & recovery".
//
// The contracts above are enforced at scale by internal/simtest, the
// simulation-torture subsystem: "ptperf fuzz -n N -seed S" generates N
// randomized worlds (random transport subsets, composed censor
// scenarios within paper-scale bounds, random topologies) and holds
// each to cross-cutting invariants — same-seed byte-identical reports,
// -jobs-independent digests, byte conservation across netem pipes,
// censor counter accounting, virtual-clock monotonicity, and no leaked
// flows or goroutines after teardown. Failures shrink to a minimal
// world with a one-line repro seed; fixed seeds are committed to
// internal/simtest/testdata/corpus and replayed by TestCorpusSeeds.
// See DESIGN.md's "Simulation torture & invariants".
package ptperf
