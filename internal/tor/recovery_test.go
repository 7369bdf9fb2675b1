package tor

import (
	"testing"
	"time"
)

// TestRetryPolicyDefaults pins the zero-value contract: the zero policy
// must reproduce the historical hard-coded behavior (three build
// attempts, one stream re-attach), negative values disable retries, and
// positive values are taken literally.
func TestRetryPolicyDefaults(t *testing.T) {
	for _, tc := range []struct {
		policy        RetryPolicy
		stream, build int
	}{
		{RetryPolicy{}, 1, 2},
		{RetryPolicy{MaxStreamRetries: -1, MaxBuildRetries: -1}, 0, 0},
		{RetryPolicy{MaxStreamRetries: 3, MaxBuildRetries: 4}, 3, 4},
	} {
		if got := tc.policy.streamRetries(); got != tc.stream {
			t.Errorf("%+v: streamRetries = %d, want %d", tc.policy, got, tc.stream)
		}
		if got := tc.policy.buildRetries(); got != tc.build {
			t.Errorf("%+v: buildRetries = %d, want %d", tc.policy, got, tc.build)
		}
	}
}

// TestBackoffBounds checks the build backoff: BackoffBase·2^n plus a
// jitter in [0, BackoffBase), exponent capped, and — crucially for
// fault-free byte-equivalence — a zero base sleeps nothing.
func TestBackoffBounds(t *testing.T) {
	w := buildWorld(t, 1, 1, 1)
	c := newTestClient(t, w, func(cfg *ClientConfig) {
		cfg.Retry = RetryPolicy{BackoffBase: time.Second}
	})
	for n := 0; n < 10; n++ {
		eff := n
		if eff > 6 {
			eff = 6
		}
		lo := time.Second << eff
		hi := lo + time.Second
		if d := c.backoff(n); d < lo || d >= hi {
			t.Fatalf("backoff(%d) = %v outside [%v, %v)", n, d, lo, hi)
		}
	}
	def := newTestClient(t, w, nil)
	if d := def.backoff(3); d != 0 {
		t.Fatalf("zero-base backoff = %v, want 0", d)
	}
}

// TestGuardProbationExpires is the churn-resilience regression: a guard
// that failed (e.g. its link flapped) serves a finite probation and must
// come back into selection afterwards — the old behavior marked it bad
// forever, so one flap permanently shrank the guard set.
func TestGuardProbationExpires(t *testing.T) {
	w := buildWorld(t, 2, 1, 1)
	c := newTestClient(t, w, nil)
	g1 := c.Guard()
	c.guardFailed(g1)
	if got := c.Recovery().GuardProbations; got != 1 {
		t.Fatalf("GuardProbations = %d, want 1", got)
	}
	// During the sentence every re-selection must avoid the failed guard.
	reselect := func() string {
		c.guard = nil
		return c.Guard().Name
	}
	for i := 0; i < 20; i++ {
		if reselect() == g1.Name {
			t.Fatal("on-probation guard reselected")
		}
	}
	// One strike: the sentence is exactly the base period.
	w.net.Clock().Sleep(DefaultGuardProbation - time.Second)
	if reselect() == g1.Name {
		t.Fatal("on-probation guard reselected a second before its sentence ends")
	}
	w.net.Clock().Sleep(time.Second)
	reused := false
	for i := 0; i < 200 && !reused; i++ {
		reused = reselect() == g1.Name
	}
	if !reused {
		t.Fatal("flapped guard never reused after its probation expired")
	}
}

// TestInvoluntaryCircuitDeathCountsRebuild: a cached circuit that dies
// under the client (relay crash, link flap) — rather than being rotated
// via NewCircuit — must count its replacement as a rebuild, or churn
// recovery would be invisible in the counters.
func TestInvoluntaryCircuitDeathCountsRebuild(t *testing.T) {
	w := buildWorld(t, 1, 1, 1)
	c := newTestClient(t, w, nil)
	if err := c.Preheat(); err != nil {
		t.Fatal(err)
	}
	if got := c.Recovery().Rebuilds; got != 0 {
		t.Fatalf("first build counted as rebuild (%d)", got)
	}
	circ := c.circ
	circ.close(nil) // the circuit dies from below; the client still caches it
	if err := c.Preheat(); err != nil {
		t.Fatal(err)
	}
	if got := c.Recovery().Rebuilds; got < 1 {
		t.Fatalf("Rebuilds = %d after involuntary circuit death, want >= 1", got)
	}
	// A voluntary rotation is not a rebuild.
	before := c.Recovery().Rebuilds
	c.NewCircuit()
	if err := c.Preheat(); err != nil {
		t.Fatal(err)
	}
	if got := c.Recovery().Rebuilds; got != before {
		t.Fatalf("voluntary NewCircuit moved Rebuilds %d → %d", before, got)
	}
}
