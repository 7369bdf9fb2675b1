package harness

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"ptperf/internal/censor"
	"ptperf/internal/stats"
	"ptperf/internal/testbed"
)

// sweepConfig is a compact but adversarial sweep: a transport with a
// pinned bridge (obfs4), one with volunteer churn (snowflake), and
// vanilla tor with its guard failover.
func sweepConfig(seed int64) Config {
	return Config{
		Seed:        seed,
		ByteScale:   0.06,
		Sites:       3,
		Repeats:     1,
		FileSizesMB: []int{5},
		Transports:  []string{"tor", "obfs4", "snowflake"},
	}
}

// TestUnknownScenarioRefused holds Run to naming a Config.Scenario the
// registry lacks before it builds a world or writes a byte.
func TestUnknownScenarioRefused(t *testing.T) {
	cfg := tinyConfig()
	cfg.Scenario = "no-such"
	var out bytes.Buffer
	err := New(cfg, &out).Run("fig2a")
	if err == nil || !strings.Contains(err.Error(), `unknown scenario "no-such"`) {
		t.Fatalf("Run = %v, want an error naming the scenario", err)
	}
	if out.Len() != 0 {
		t.Errorf("report written before the scenario was refused: %q", out.String())
	}
}

// TestSweepDeterminism extends the same-seed oracle to the censor
// layer: scenario windows, throttles, loss draws, cutovers and load
// phases are all scheduled on the virtual clock, so a sweep is a pure
// function of its seed.
func TestSweepDeterminism(t *testing.T) {
	run := func() string {
		var buf bytes.Buffer
		r := New(sweepConfig(11), &buf)
		if err := r.Run("sweep"); err != nil {
			t.Fatalf("sweep: %v", err)
		}
		return buf.String()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("same seed produced different sweep reports:\n--- first ---\n%s\n--- second ---\n%s", a, b)
	}
}

// TestSweepJobsEquivalence pins the acceptance contract of the shard
// executor on the sweep path: every scenario cell is an independent
// world task, so running the matrix one cell at a time (-jobs 1) and
// four cells at a time (-jobs 4) must produce byte-identical reports.
func TestSweepJobsEquivalence(t *testing.T) {
	run := func(jobs int) string {
		cfg := sweepConfig(11)
		cfg.Jobs = jobs
		var buf bytes.Buffer
		r := New(cfg, &buf)
		if err := r.Run("sweep"); err != nil {
			t.Fatalf("sweep (jobs=%d): %v", jobs, err)
		}
		return buf.String()
	}
	if seq, par := run(1), run(4); seq != par {
		t.Fatalf("sweep reports differ between jobs=1 and jobs=4:\n--- jobs=1 ---\n%s\n--- jobs=4 ---\n%s", seq, par)
	}
}

// TestScenariosShapeOutcomes asserts the acceptance behaviors: the
// throttle surge measurably degrades access time against the clean
// baseline, and bridge blocking produces failure accounting (blocked
// dials, failed accesses) while fronted transports keep working.
func TestScenariosShapeOutcomes(t *testing.T) {
	cfg := Config{
		Seed:        5,
		ByteScale:   0.06,
		Sites:       6,
		Repeats:     1,
		FileSizesMB: []int{5},
		Transports:  []string{"tor", "obfs4", "meek"},
	}
	r := New(cfg, io.Discard)

	measure := func(name string) (map[string]*scenarioResult, censor.Stats, error) {
		c := r.cfg.sweepCell(name)
		w, err := testbed.New(c.opts)
		if err != nil {
			return nil, censor.Stats{}, err
		}
		defer w.Close()
		sc, err := c.measure(w, c.in)
		if err != nil {
			return nil, censor.Stats{}, err
		}
		return sc.Data, sc.Stats, nil
	}

	clean, cleanStats, err := measure("clean")
	if err != nil {
		t.Fatalf("clean: %v", err)
	}
	if cleanStats.BlockedDials != 0 || cleanStats.ThrottledSegments != 0 {
		t.Fatalf("clean scenario applied interference: %+v", cleanStats)
	}
	for m, d := range clean {
		if d.Failed != 0 {
			t.Errorf("clean: %s had %d failed accesses", m, d.Failed)
		}
	}

	throttled, thStats, err := measure("throttle-surge")
	if err != nil {
		t.Fatalf("throttle-surge: %v", err)
	}
	if thStats.ThrottledSegments == 0 {
		t.Error("throttle-surge ran but throttled no segments")
	}
	degraded := 0
	for _, m := range cfg.Transports {
		if stats.Mean(throttled[m].Times) > stats.Mean(clean[m].Times) {
			degraded++
		}
	}
	if degraded == 0 {
		t.Error("throttle-surge degraded no transport vs clean")
	}

	blocked, blStats, err := measure("bridge-block")
	if err != nil {
		t.Fatalf("bridge-block: %v", err)
	}
	if blStats.BlockedDials == 0 {
		t.Error("bridge-block refused no dials")
	}
	if blocked["obfs4"].Failed == 0 {
		t.Error("bridge-block: obfs4's pinned bridge should fail once blocked")
	}
	// meek's CDN front stays reachable: domain fronting survives the
	// block while direct bridges die.
	if blocked["meek"].Failed != 0 {
		t.Errorf("bridge-block: meek should survive via its front, had %d failures", blocked["meek"].Failed)
	}
}
