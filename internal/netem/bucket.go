package netem

import "time"

// Bucket is a token-bucket rate limiter on the virtual clock. Buckets are
// shared: every conn leaving a host reserves transmission time on the
// host's egress bucket, so concurrent flows through the same host contend
// for its capacity. This is the mechanism that reproduces the paper's
// central observation that a loaded first hop (volunteer guard) dominates
// download time while an idle PT bridge does not.
type Bucket struct {
	// rate is the effective data rate in bytes per virtual second.
	rate float64
	// free is the virtual time at which the link becomes idle.
	free time.Duration
	// queueDelay is the M/M/1-style queueing latency a segment pays on
	// a loaded link: util/(1−util) × a base service time. This is the
	// latency half of relay load — the bandwidth half is the rate
	// reduction — and is what makes a saturated volunteer guard slower
	// than an idle PT bridge even for small transfers (§4.2.1).
	queueDelay time.Duration
}

// queueBase is the nominal per-segment service time scaled by the load
// factor util/(1−util).
const queueBase = 20 * time.Millisecond

// maxQueueDelay caps the modeled queueing latency.
const maxQueueDelay = 150 * time.Millisecond

// NewBucket returns a bucket with the given capacity in bytes per virtual
// second, reduced by the background utilization factor in [0,1). The
// utilization models traffic from other network users (e.g. regular Tor
// clients on a volunteer guard) that our flows must share the link with.
func NewBucket(capacity float64, utilization float64) *Bucket {
	b := new(Bucket)
	b.Reload(capacity, utilization)
	return b
}

// QueueDelay reports the per-segment queueing latency of the link.
func (b *Bucket) QueueDelay() time.Duration { return b.queueDelay }

// Rate reports the effective rate in bytes per virtual second.
func (b *Bucket) Rate() float64 { return b.rate }

// Reload reconfigures capacity and utilization together, recomputing
// both the effective rate and the queueing latency: utilization is
// clamped to [0, 0.97], the rate it leaves is at least 1 B/s and the
// latency of the load is capped at maxQueueDelay.
func (b *Bucket) Reload(capacity, utilization float64) {
	utilization = min(max(utilization, 0), 0.97)
	b.rate = max(capacity*(1-utilization), 1)
	qd := time.Duration(float64(queueBase) * utilization / (1 - utilization))
	b.queueDelay = min(qd, maxQueueDelay)
}

// Reserve books n bytes of transmission starting no earlier than now and
// returns the virtual time at which the last byte has been serialized.
func (b *Bucket) Reserve(now time.Duration, n int) time.Duration {
	start := now
	if b.free > start {
		start = b.free
	}
	if n <= 0 {
		// A zero-byte reservation transmits nothing but still queues
		// behind the link's backlog: returning `now` would let it
		// finish before segments reserved earlier, breaking arrival
		// monotonicity (TestBucketMonotonic's 0x0 draws).
		return start
	}
	tx := time.Duration(float64(n) / b.rate * float64(time.Second))
	b.free = start + tx
	return b.free
}
