package simtest

import (
	"maps"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ptperf/internal/censor"
	"ptperf/internal/netem"
)

// TestFuzzSmoke is the bounded in-tree torture run: a handful of
// randomized worlds through the full invariant suite. `ptperf fuzz`
// scales the same machinery to hundreds of worlds.
func TestFuzzSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-world test")
	}
	res := Fuzz(Config{N: 6, Seed: 2})
	if len(res.Failures) != 0 {
		for _, f := range res.Failures {
			t.Errorf("%s: %v", f.Spec.ID(), f.Err)
		}
	}
	if res.Worlds != 6 || res.Digest == "" {
		t.Fatalf("result incomplete: %+v", res)
	}
}

// TestFuzzJobsEquivalence holds the fuzzer to the contract it enforces:
// the run digest — a hash over every world's canonical report — must be
// identical at any parallelism, and across repeated runs.
func TestFuzzJobsEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-world test")
	}
	seq := Fuzz(Config{N: 4, Seed: 3, Jobs: 1})
	par := Fuzz(Config{N: 4, Seed: 3, Jobs: 4})
	if seq.Digest != par.Digest {
		t.Fatalf("jobs=1 digest %s != jobs=4 digest %s", seq.Digest, par.Digest)
	}
	if len(seq.Failures)+len(par.Failures) != 0 {
		t.Fatalf("fuzz failures: %+v / %+v", seq.Failures, par.Failures)
	}
}

// TestInjectedFaultCaughtAndShrunk proves the suite catches a
// miscounting censor: a counter mutation behind the test hook must trip
// the censor-accounting invariant and shrink to a world of at most two
// transports and two scenario rules.
func TestInjectedFaultCaughtAndShrunk(t *testing.T) {
	censor.SetStatsFault(func(s *censor.Stats) { s.ThrottledSegments += 1 << 30 })
	defer censor.SetStatsFault(nil)

	spec := Generate(11, 0)
	err := Check(spec)
	if err == nil {
		t.Fatal("injected censor counter fault not caught")
	}
	if !strings.Contains(err.Error(), "censor-accounting") {
		t.Fatalf("fault caught by the wrong invariant: %v", err)
	}

	min, minErr, trials := Shrink(spec, 0)
	if minErr == nil {
		t.Fatal("shrunken world no longer fails")
	}
	if len(min.Transports) > 2 {
		t.Errorf("shrunken world keeps %d transports, want <= 2", len(min.Transports))
	}
	if len(min.Scenario.Events) > 2 {
		t.Errorf("shrunken world keeps %d rules, want <= 2", len(min.Scenario.Events))
	}
	if trials < 2 {
		t.Errorf("shrink ran only %d trials", trials)
	}
	if report := FailureReport(spec, err, min, minErr, trials); !strings.Contains(report, "repro: "+min.Repro()) {
		t.Errorf("failure report does not carry the shrunken world's repro line:\n%s", report)
	}
	// The minimal world's repro line must reproduce the failure.
	replay, err := ParseRepro(min.Repro())
	if err != nil {
		t.Fatal(err)
	}
	if err := Check(replay); err == nil {
		t.Fatal("repro line of the shrunken world does not reproduce the failure")
	}
}

// TestCorpusSeeds replays every committed regression seed: worlds whose
// invariant violations were fixed must stay fixed. Runs under -race in
// CI.
func TestCorpusSeeds(t *testing.T) {
	specs, err := LoadCorpusFile(filepath.Join("testdata", "corpus", "seeds.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) < 5 {
		t.Fatalf("corpus holds %d seeds, want >= 5", len(specs))
	}
	for _, spec := range specs {
		spec := spec
		t.Run(spec.ID(), func(t *testing.T) {
			if err := Check(spec); err != nil {
				t.Errorf("regression: %v", err)
			}
		})
	}
}

// TestTeardownInvariants: a world that ran clean is empty after Close,
// closed-world-empty says so when it is not, and a no-leaks failure
// names the goroutines spawned since the first sample with what each
// was parked on.
func TestTeardownInvariants(t *testing.T) {
	o, err := Run(Generate(11, 0))
	if err != nil {
		t.Fatal(err)
	}
	if err := checkClosedWorldEmpty(o); err != nil {
		t.Fatalf("closed-world-empty on a clean world: %v", err)
	}
	if err := checkNoLeaks(o); err != nil {
		t.Fatalf("no-leaks on a clean world: %v", err)
	}
	if len(o.Parked) != 0 {
		t.Fatalf("Close found %d goroutines parked in a world that ran clean, want 0:\n%s", len(o.Parked), netem.FormatParked(o.Parked))
	}

	leaky := *o
	leaky.Closed.Registered = 2
	if err := checkClosedWorldEmpty(&leaky); err == nil {
		t.Error("closed-world-empty accepts a second registered goroutine")
	}
	leaky = *o
	leaky.Closed.OpenConns = 1
	if err := checkClosedWorldEmpty(&leaky); err == nil {
		t.Error("closed-world-empty accepts an open conn")
	}
	leaky = *o
	leaky.Closed.NodesOut = 1
	if err := checkClosedWorldEmpty(&leaky); err == nil {
		t.Error("closed-world-empty accepts a queue node not back on its list")
	}
	for _, class := range wholeLeaseClasses {
		leaky = *o
		leaky.Closed.LeasesOut = maps.Clone(o.Closed.LeasesOut)
		leaky.Closed.LeasesOut[class] = 1
		if err := checkClosedWorldEmpty(&leaky); err == nil {
			t.Errorf("closed-world-empty accepts a %s buffer still leased", class)
		}
	}

	// Fabricate a leak: the world grew by one goroutine more than the
	// tolerance after a first sample at t=0, and the suspect Close found
	// is one parked on a clock of this test's own.
	clock := netem.NewClock()
	clock.Go(func() { netem.NewCond(clock).Wait() })
	clock.Sleep(time.Millisecond)
	leaky = *o
	leaky.Registered, leaky.FirstSample = [2]int{1, 2 + leakGoroutineTolerance}, 0
	leaky.Parked = clock.ShutdownListing()
	err = checkNoLeaks(&leaky)
	if err == nil {
		t.Fatal("no-leaks accepts a world that grew past its tolerance")
	}
	for _, want := range []string{"goroutine leak", "spawned at t=", "cond wait", "ptperf/internal/"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("leak report lacks %q:\n%v", want, err)
		}
	}
}
