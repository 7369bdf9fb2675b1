package censor

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"ptperf/internal/netem"
)

// TestComposeSplicesEventsAndPhases checks the combinator's contract:
// events concatenate in input order, phases come from the first input
// that has any.
func TestComposeSplicesEventsAndPhases(t *testing.T) {
	throttle, _ := Lookup("throttle-surge")
	lossy, _ := Lookup("lossy-path")
	surge, _ := Lookup("snowflake-surge")

	sc := Compose("combo", "test combo", throttle, surge, lossy)
	if sc.Name != "combo" {
		t.Errorf("name = %q", sc.Name)
	}
	wantEvents := len(throttle.Events) + len(surge.Events) + len(lossy.Events)
	if len(sc.Events) != wantEvents {
		t.Errorf("events = %d, want %d", len(sc.Events), wantEvents)
	}
	if sc.Events[0].Rule.Name != throttle.Events[0].Rule.Name {
		t.Errorf("event order not preserved: first is %q", sc.Events[0].Rule.Name)
	}
	if len(sc.Phases) != len(surge.Phases) {
		t.Errorf("phases = %d, want the surge's %d", len(sc.Phases), len(surge.Phases))
	}
	// A second phase-bearing input must not splice a conflicting pool
	// timeline.
	again := Compose("combo2", "", surge, surge)
	if len(again.Phases) != len(surge.Phases) {
		t.Errorf("double-surge phases = %d, want %d", len(again.Phases), len(surge.Phases))
	}
}

// TestBuiltinScenariosWithinPaperBounds pins the registry to the
// paper-scale envelope: a future scenario with a dial-up throttle or a
// 50% reset rate should fail here, not surprise the fuzzer.
func TestBuiltinScenariosWithinPaperBounds(t *testing.T) {
	b := PaperBounds()
	for _, name := range Names() {
		sc, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := b.Validate(sc); err != nil {
			t.Errorf("built-in scenario %s: %v", name, err)
		}
	}
}

// TestRandomScenarioWithinBounds draws many scenarios and checks every
// one stays inside the paper-scale envelope and reproduces from its
// seed.
func TestRandomScenarioWithinBounds(t *testing.T) {
	b := PaperBounds()
	for seed := int64(0); seed < 200; seed++ {
		sc := RandomScenario(seed, b)
		if err := b.Validate(sc); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		again := RandomScenario(seed, b)
		if len(again.Events) != len(sc.Events) || again.Name != sc.Name {
			t.Fatalf("seed %d not reproducible: %d vs %d events", seed, len(sc.Events), len(again.Events))
		}
		if !reflect.DeepEqual(sc, again) {
			t.Fatalf("seed %d not reproducible:\n%+v\nvs\n%+v", seed, sc, again)
		}
	}
}

// TestRandomScenarioDiversity guards the generator against collapsing:
// across a modest seed range it must produce throttles, loss, resets,
// blocks and composed base scenarios.
func TestRandomScenarioDiversity(t *testing.T) {
	b := PaperBounds()
	var throttles, losses, resets, blocks, phases int
	for seed := int64(0); seed < 300; seed++ {
		sc := RandomScenario(seed, b)
		for _, ev := range sc.Events {
			switch {
			case ev.Rule.RateBps > 0:
				throttles++
			case ev.Rule.Loss > 0:
				losses++
			case ev.Rule.ResetProb > 0:
				resets++
			case ev.Rule.Block:
				blocks++
			}
		}
		if len(sc.Phases) > 0 {
			phases++
		}
	}
	for name, n := range map[string]int{
		"throttle": throttles, "loss": losses, "reset": resets,
		"block": blocks, "phases": phases,
	} {
		if n == 0 {
			t.Errorf("300 seeds produced no %s rules", name)
		}
	}
}

// TestValidateRejectsOutOfBounds checks each bound actually rejects.
func TestValidateRejectsOutOfBounds(t *testing.T) {
	b := PaperBounds()
	cases := []struct {
		label string
		ev    Event
	}{
		{"rate below floor", Event{Rule: Rule{RateBps: 1024}}},
		{"rate above ceiling", Event{Rule: Rule{RateBps: 64 << 20}}},
		{"loss above cap", Event{Rule: Rule{Loss: 0.5}}},
		{"reset above cap", Event{Rule: Rule{ResetProb: 0.2}}},
		{"activation beyond horizon", Event{At: 10 * time.Minute}},
		{"negative duration", Event{Duration: -time.Second}},
		{"jitter above cap", Event{Rule: Rule{Jitter: time.Second}}},
		{"delay above cap", Event{Rule: Rule{ExtraDelay: time.Second}}},
	}
	for _, c := range cases {
		sc := Scenario{Name: "bad", Events: []Event{c.ev}}
		if err := b.Validate(sc); err == nil {
			t.Errorf("%s: validated", c.label)
		}
	}
	if err := b.Validate(Scenario{Name: "bad-phase", Phases: []LoadPhase{{Util: 1.5}}}); err == nil {
		t.Error("phase utilization 1.5 validated")
	}
}

// TestRandomScenarioWindowsOnVirtualClock attaches a generated
// time-windowed rule to a bare network and checks activation follows
// the network's virtual clock, not wall time: before At the rule is
// inert, at At it bites.
func TestRandomScenarioWindowsOnVirtualClock(t *testing.T) {
	// A hand-rolled windowed block keeps the check exact; RandomScenario
	// windows run through the identical Event.active path, which
	// TestRandomScenarioWithinBounds pins to the same envelope.
	sc := Scenario{
		Name: "windowed",
		Events: []Event{{
			At:       5 * time.Second,
			Duration: 5 * time.Second,
			Rule:     Rule{Name: "win", Match: Match{Via: "client"}, Block: true},
		}},
	}
	if err := PaperBounds().Validate(sc); err != nil {
		t.Fatal(err)
	}
	n := netem.New(netem.WithSeed(5))
	t.Cleanup(n.Clock().Shutdown)
	client := n.MustAddHost(netem.HostConfig{Name: "client"})
	server := n.MustAddHost(netem.HostConfig{Name: "server"})
	l, err := server.Listen(80)
	if err != nil {
		t.Fatal(err)
	}
	n.Go(func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			c.Close()
		}
	})
	censor := Attach(n, sc, 1, 1)

	if _, err := client.Dial("server:80"); err != nil {
		t.Fatalf("dial before window: %v", err)
	}
	n.Clock().SleepUntil(6 * time.Second)
	if _, err := client.Dial("server:80"); err == nil || !strings.Contains(err.Error(), "blocked") {
		t.Fatalf("dial inside window: err = %v, want blocked", err)
	}
	n.Clock().SleepUntil(11 * time.Second)
	if _, err := client.Dial("server:80"); err != nil {
		t.Fatalf("dial after window: %v", err)
	}
	if st := censor.Stats(); st.BlockedDials != 1 {
		t.Errorf("blocked dials = %d, want 1", st.BlockedDials)
	}
	l.Close()
}
