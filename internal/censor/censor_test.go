package censor

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"sort"
	"testing"
	"time"

	"ptperf/internal/geo"
	"ptperf/internal/netem"
	"ptperf/internal/sim"
)

// testNet builds a two-host network with scenario sc attached.
func testNet(t *testing.T, sc Scenario) (*netem.Network, *Censor, *netem.Host, *netem.Host) {
	t.Helper()
	n := netem.New(netem.WithSeed(7))
	t.Cleanup(n.Clock().Shutdown)
	a := n.MustAddHost(netem.HostConfig{Name: "a", Location: geo.London})
	b := n.MustAddHost(netem.HostConfig{Name: "b", Location: geo.Frankfurt})
	c := Attach(n, sc, 7, 1)
	return n, c, a, b
}

// transfer sends size bytes from a to b:80 and returns the virtual time
// at which the last byte arrived at the receiver.
func transfer(t *testing.T, n *netem.Network, a, b *netem.Host, size int) time.Duration {
	t.Helper()
	ln, err := b.Listen(80)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	done := netem.NewChan[time.Duration](n.Clock(), 1)
	n.Go(func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		got, _ := io.Copy(io.Discard, c)
		if int(got) != size {
			t.Errorf("receiver got %d of %d bytes", got, size)
		}
		done.Send(n.Now())
	})
	c, err := a.Dial("b:80")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	start := n.Now()
	if _, err := c.Write(bytes.Repeat([]byte{0xCC}, size)); err != nil {
		t.Fatal(err)
	}
	c.(*netem.Conn).CloseWrite()
	at, ok := done.Recv()
	if !ok {
		t.Fatal("receiver never finished")
	}
	return at - start
}

func TestThrottlePrimitiveBoundsRate(t *testing.T) {
	const size = 2 << 20
	n, _, a, b := testNet(t, Scenario{Name: "t0"})
	base := transfer(t, n, a, b, size)

	sc := Scenario{Name: "t1", Events: []Event{{Rule: Rule{
		Name: "throttle", Match: Match{Via: "a"}, RateBps: 1 << 20,
	}}}}
	n2, c2, a2, b2 := testNet(t, sc)
	slow := transfer(t, n2, a2, b2, size)

	if base > time.Second {
		t.Fatalf("baseline transfer unexpectedly slow: %v", base)
	}
	// 2 MB through a 1 MB/s throttle needs ≥ 2 virtual seconds.
	if slow < 1500*time.Millisecond {
		t.Fatalf("throttled transfer too fast: %v (baseline %v)", slow, base)
	}
	if c2.Stats().ThrottledSegments == 0 {
		t.Fatal("throttle applied but no segments counted")
	}
}

func TestLossPrimitiveAddsPenalty(t *testing.T) {
	const size = 64 << 10
	n, _, a, b := testNet(t, Scenario{Name: "l0"})
	base := transfer(t, n, a, b, size)

	sc := Scenario{Name: "l1", Events: []Event{{Rule: Rule{
		Name: "loss", Match: Match{Via: "a"}, Loss: 1, LossPenalty: time.Second,
	}}}}
	n2, c2, a2, b2 := testNet(t, sc)
	slow := transfer(t, n2, a2, b2, size)

	if slow < base+900*time.Millisecond {
		t.Fatalf("loss penalty not charged: base %v, lossy %v", base, slow)
	}
	if c2.Stats().LossEvents == 0 {
		t.Fatal("loss applied but no events counted")
	}
}

func TestResetPrimitiveTearsConnection(t *testing.T) {
	sc := Scenario{Name: "r1", Events: []Event{{Rule: Rule{
		Name: "rst", Match: Match{Hosts: []string{"b"}}, ResetProb: 1,
	}}}}
	n, c, a, b := testNet(t, sc)
	ln, err := b.Listen(80)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	n.Go(func() {
		cn, err := ln.Accept()
		if err != nil {
			return
		}
		io.Copy(io.Discard, cn)
		cn.Close()
	})
	conn, err := a.Dial("b:80")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("hello")); !errors.Is(err, netem.ErrReset) {
		t.Fatalf("want ErrReset, got %v", err)
	}
	if c.Stats().Resets == 0 {
		t.Fatal("reset fired but not counted")
	}
}

func TestBlockWindowRefusesAndCuts(t *testing.T) {
	sc := Scenario{Name: "b1", Events: []Event{{
		At: 5 * time.Second,
		Rule: Rule{
			Name: "block", Match: Match{Via: "a", Hosts: []string{"b"}}, Block: true,
		},
	}}}
	n, c, a, b := testNet(t, sc)
	ln, err := b.Listen(80)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	n.Go(func() {
		for {
			cn, err := ln.Accept()
			if err != nil {
				return
			}
			n.Go(func() {
				io.Copy(io.Discard, cn)
				cn.Close()
			})
		}
	})

	// Before the window: dialing works and the flow stays up.
	conn, err := a.Dial("b:80")
	if err != nil {
		t.Fatalf("pre-window dial failed: %v", err)
	}
	if _, err := conn.Write([]byte("pre")); err != nil {
		t.Fatalf("pre-window write failed: %v", err)
	}

	// Cross the activation: the live flow is cut and new dials refuse.
	n.Clock().SleepUntil(6 * time.Second)
	if _, err := conn.Write(bytes.Repeat([]byte("x"), 4096)); err == nil {
		t.Fatal("write on a cut flow succeeded")
	}
	if _, err := a.Dial("b:80"); !errors.Is(err, ErrBlocked) {
		t.Fatalf("in-window dial: want ErrBlocked, got %v", err)
	}
	st := c.Stats()
	if st.BlockedDials != 1 || st.FlowsCut != 1 {
		t.Fatalf("stats = %+v, want 1 blocked dial and 1 cut flow", st)
	}

	// An unmatched destination is unaffected.
	if _, err := a.Dial("a:81"); err == nil {
		t.Fatal("expected refused (no listener), not blocked")
	} else if errors.Is(err, ErrBlocked) {
		t.Fatal("censor blocked an unmatched endpoint")
	}
}

func TestThrottleWindowEnds(t *testing.T) {
	sc := Scenario{Name: "w1", Events: []Event{{
		At:       0,
		Duration: 2 * time.Second,
		Rule: Rule{
			Name: "burst", Match: Match{Via: "a"}, RateBps: 256 << 10,
		},
	}}}
	n, _, a, b := testNet(t, sc)
	in := transfer(t, n, a, b, 512<<10) // 512 KB at 256 KB/s ≥ 2s
	if in < 1500*time.Millisecond {
		t.Fatalf("in-window transfer not throttled: %v", in)
	}
	n.Clock().SleepUntil(10 * time.Second)
	ln, _ := b.Listen(81)
	defer ln.Close()
	out := transferOn(t, n, a, "b:81", ln, 512<<10)
	if out > time.Second {
		t.Fatalf("post-window transfer still throttled: %v", out)
	}
}

// transferOn is transfer against an explicit listener/address.
func transferOn(t *testing.T, n *netem.Network, a *netem.Host, addr string, ln *netem.Listener, size int) time.Duration {
	t.Helper()
	done := netem.NewChan[time.Duration](n.Clock(), 1)
	n.Go(func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		io.Copy(io.Discard, c)
		done.Send(n.Now())
	})
	c, err := a.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	start := n.Now()
	if _, err := c.Write(bytes.Repeat([]byte{0xAB}, size)); err != nil {
		t.Fatal(err)
	}
	c.(*netem.Conn).CloseWrite()
	at, ok := done.Recv()
	if !ok {
		t.Fatal("receiver never finished")
	}
	return at - start
}

func TestMatchSemantics(t *testing.T) {
	cases := []struct {
		m        Match
		src, dst string
		want     bool
	}{
		{Match{}, "a:1", "b:2", true},
		{Match{Via: "client"}, "client:40001", "bridge:443", true},
		{Match{Via: "client"}, "bridge:443", "client:40001", true},
		{Match{Via: "client"}, "relay:9001", "bridge:443", false},
		{Match{Via: "client", Hosts: []string{"obfs4-bridge-*"}}, "client:1", "obfs4-bridge-3:443", true},
		{Match{Via: "client", Hosts: []string{"obfs4-bridge-*"}}, "client:1", "meek-bridge-3:443", false},
		{Match{Via: "client", Port: 443}, "client:1", "bridge:443", true},
		{Match{Via: "client", Port: 443}, "client:1", "bridge:80", false},
		{Match{Hosts: []string{"guard-0"}}, "guard-0:9001", "client:5", true},
		{Match{Hosts: []string{"*-bridge-*"}}, "client:1", "obfs4-bridge-3:443", true},
		{Match{Hosts: []string{"*-bridge-*"}}, "client:1", "cdn-front-2:443", false},
		{Match{Hosts: []string{"guard-0"}}, "client:1", "guard-01:9001", false},
		{Match{Via: "cli*", Hosts: []string{"*-bridge-*"}}, "client:1", "-bridge-:443", true},
		{Match{Via: "client", Hosts: []string{"a*b*c"}}, "client", "a1b2c", true},
		{Match{Via: "client", Hosts: []string{"a*b*c"}}, "client", "acb", false},
		{Match{Via: "client", Hosts: []string{"a*b**c"}}, "client", "abc", true},
		{Match{Via: "client", Hosts: []string{"ab*ab"}}, "client", "ab", false},
		{Match{Via: "client", Hosts: []string{"ab*ab"}}, "client", "abab", true},
	}
	for i, tc := range cases {
		if got := tc.m.Hit(tc.src, tc.dst); got != tc.want {
			t.Errorf("case %d: Hit(%q,%q) = %v, want %v", i, tc.src, tc.dst, got, tc.want)
		}
	}
}

func TestSplitHostPort(t *testing.T) {
	for _, tc := range []struct {
		ep   string
		host string
		port int
	}{
		{"guard-0:9001", "guard-0", 9001},
		{"client", "client", -1},
		{"guard-0", "guard-0", -1},
		{"host:", "host", 0},
		{"host:8a", "host:8a", -1},
		{"a:b:80", "a:b", 80},
		{"443", "443", -1},
		{"", "", -1},
	} {
		if host, port := splitHostPort(tc.ep); host != tc.host || port != tc.port {
			t.Errorf("splitHostPort(%q) = %q, %d, want %q, %d", tc.ep, host, port, tc.host, tc.port)
		}
	}
}

func TestBindLoadPlaysPhases(t *testing.T) {
	sc := Scenario{Name: "p1", Phases: []LoadPhase{
		{At: 0, Label: "calm", Util: 0.1, Lifetime: 300 * time.Second},
		{At: 3 * time.Second, Label: "surge", Util: 0.8, Lifetime: 25 * time.Second},
	}}
	n, c, _, _ := testNet(t, sc)
	var seen []string
	c.BindLoad(func(p LoadPhase) { seen = append(seen, p.Label) })
	if len(seen) != 1 || seen[0] != "calm" {
		t.Fatalf("immediate phase = %v, want [calm]", seen)
	}
	n.Clock().SleepUntil(4 * time.Second)
	if len(seen) != 2 || seen[1] != "surge" {
		t.Fatalf("phases after window = %v, want [calm surge]", seen)
	}
}

// TestCutoversAndPhasesAreClockEvents: Attach and BindLoad arm every
// Block cutover and every future load phase as a clock event, so no
// goroutine is registered for them, and each fires at its own instant: a
// flow the window matches is cut at the window's start and not a
// nanosecond before, and a phase is applied at its At.
func TestCutoversAndPhasesAreClockEvents(t *testing.T) {
	n := netem.New(netem.WithSeed(7))
	t.Cleanup(n.Clock().Shutdown)
	clock := n.Clock()
	a := n.MustAddHost(netem.HostConfig{Name: "a", Location: geo.London})
	b := n.MustAddHost(netem.HostConfig{Name: "b", Location: geo.Frankfurt})
	block := Rule{Name: "block", Match: Match{Via: "a", Hosts: []string{"b"}}, Block: true}
	sc := Scenario{
		Name: "e1",
		Events: []Event{
			{At: 2 * time.Second, Duration: time.Second, Rule: block},
			{At: 4 * time.Second, Rule: block},
		},
		Phases: []LoadPhase{
			{At: 0, Label: "calm"},
			{At: 1500 * time.Millisecond, Label: "surge"},
			{At: 3500 * time.Millisecond, Label: "ebb"},
		},
	}
	before := clock.Registered()
	c := Attach(n, sc, 7, 1)
	applied := map[string]time.Duration{}
	c.BindLoad(func(p LoadPhase) { applied[p.Label] = clock.Now() })
	if got := clock.Registered(); got != before {
		t.Fatalf("Attach and BindLoad registered %+d goroutines, want none", got-before)
	}
	if _, err := b.Listen(80); err != nil {
		t.Fatal(err)
	}
	for i, at := range []time.Duration{2 * time.Second, 4 * time.Second} {
		conn, err := a.Dial("b:80")
		if err != nil {
			t.Fatalf("dial before cutover %d: %v", i, err)
		}
		clock.SleepUntil(at - 1)
		if conn.(*netem.Conn).Closed() || c.Stats().FlowsCut != i {
			t.Fatalf("cutover %d: the flow was cut before %v", i, at)
		}
		clock.SleepUntil(at)
		if !conn.(*netem.Conn).Closed() || c.Stats().FlowsCut != i+1 {
			t.Fatalf("cutover %d: the flow is not cut at %v (stats %+v)", i, at, c.Stats())
		}
		clock.SleepUntil(at + 1100*time.Millisecond)
	}
	want := map[string]time.Duration{"calm": 0, "surge": 1500 * time.Millisecond, "ebb": 3500 * time.Millisecond}
	if len(applied) != len(want) {
		t.Fatalf("phases applied %v, want %v", applied, want)
	}
	for label, at := range want {
		if got, ok := applied[label]; !ok || got != at {
			t.Errorf("phase %s applied at %v, want %v", label, got, at)
		}
	}
}

func TestSameSeedSameInterference(t *testing.T) {
	run := func() time.Duration {
		sc, err := Lookup("lossy-path")
		if err != nil {
			t.Fatal(err)
		}
		n := netem.New(netem.WithSeed(9))
		t.Cleanup(n.Clock().Shutdown)
		a := n.MustAddHost(netem.HostConfig{Name: "client", Location: geo.Toronto})
		b := n.MustAddHost(netem.HostConfig{Name: "b", Location: geo.NewYork})
		Attach(n, sc, 9, 1)
		return transfer(t, n, a, b, 256<<10)
	}
	if x, y := run(), run(); x != y {
		t.Fatalf("same seed, different transfer times: %v vs %v", x, y)
	}
}

func TestRegistryBuiltins(t *testing.T) {
	for _, name := range []string{"clean", "throttle-surge", "lossy-path", "bridge-block", "snowflake-surge"} {
		if _, err := Lookup(name); err != nil {
			t.Errorf("builtin %q missing: %v", name, err)
		}
	}
	if _, err := Lookup("no-such-scenario"); err == nil {
		t.Error("unknown scenario lookup succeeded")
	}
	sf, _ := Lookup("snowflake-surge")
	if len(sf.Phases) != len(SurgePhases) {
		t.Errorf("snowflake-surge has %d phases, want %d", len(sf.Phases), len(SurgePhases))
	}
}

// refCensor is the censor as it was before a flow's rules were matched
// once: every rule of the scenario is tested against every segment,
// Match.Hit included. It is the reference FilterSegment is held to.
type refCensor struct {
	sc    Scenario
	rng   *rand.Rand
	stats Stats
}

// filterSegment returns the verdict and, in place of the shaper, the
// index of the event whose throttle the segment goes through (-1: none).
func (c *refCensor) filterSegment(now time.Duration, src, dst string) (v netem.Verdict, shaper int) {
	shaper = -1
	for i := range c.sc.Events {
		ev := &c.sc.Events[i]
		r := &ev.Rule
		if !ev.active(now) || !r.Match.Hit(src, dst) {
			continue
		}
		if r.Block {
			c.stats.Resets++
			return netem.Verdict{Action: netem.Reset}, -1
		}
		if r.ResetProb > 0 && c.rng.Float64() < r.ResetProb {
			c.stats.Resets++
			return netem.Verdict{Action: netem.Reset}, -1
		}
		if r.RateBps > 0 && shaper < 0 {
			shaper = i
			c.stats.ThrottledSegments++
		}
		v.Extra += r.ExtraDelay
		if r.Jitter > 0 {
			v.Extra += time.Duration(c.rng.Int63n(int64(r.Jitter)))
		}
		if r.Loss > 0 && c.rng.Float64() < r.Loss {
			pen := r.LossPenalty
			if pen <= 0 {
				pen = 250 * time.Millisecond
			}
			v.Extra += pen
			c.stats.LossEvents++
		}
	}
	if v.Extra > 0 || shaper >= 0 {
		v.Action = netem.Impair
	}
	return v, shaper
}

// TestFilterSegmentMatchesPerSegmentReference drives the censor and the
// reference through the same segments — every built-in scenario and two
// compositions, flows in both directions with and without ports, at
// instants on both sides of every window edge — and wants the same
// verdicts, hence the same draws from equally seeded streams, and the
// same counters. Flows come once with a conn's memo and once without.
func TestFilterSegmentMatchesPerSegmentReference(t *testing.T) {
	flows := [][2]string{
		{"client:40001", "obfs4-bridge-0:443"},
		{"obfs4-bridge-0:443", "client:40001"},
		{"client:40002", "guard-0:9001"},
		{"client:40003", "guard-2:9001"},
		{"client:40004", "meek-server-0:443"},
		{"exit-1:50000", "origin:80"},
		{"origin:80", "exit-1:50000"},
		{"middle-0:9001", "exit-0:9001"},
		{"client", "snowflake-proxy-3"},
		{"origin", "client"},
	}
	var scenarios, builtins []Scenario
	for _, name := range Names() {
		sc, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		builtins = append(builtins, sc)
	}
	scenarios = append(scenarios, builtins...)
	mixed := Compose("mixed", "every built-in and a random draw", builtins...)
	mixed = Compose(mixed.Name, mixed.Description, mixed, RandomScenario(3), RandomScenario(4))
	wide := Scenario{Name: "wide"}
	for len(wide.Events) <= 64 {
		wide = Compose(wide.Name, "more events than a machine word has bits", wide, mixed)
	}
	scenarios = append(scenarios, mixed, wide)

	for _, sc := range scenarios {
		for _, withMemo := range []bool{true, false} {
			const seed = 11
			n := netem.New(netem.WithSeed(seed))
			t.Cleanup(n.Clock().Shutdown)
			c := Attach(n, sc, seed, 1)
			ref := &refCensor{sc: sc, rng: sim.NewRand(seed*7919 + 31)}
			memos := make([]netem.FlowMemo, len(flows))

			edges := []time.Duration{0}
			for _, ev := range sc.Events {
				for _, at := range []time.Duration{ev.At, ev.At + ev.Duration} {
					edges = append(edges, at-1, at, at+1)
				}
			}
			sort.Slice(edges, func(i, j int) bool { return edges[i] < edges[j] })
			for _, at := range edges {
				if at < n.Now() {
					continue
				}
				n.Clock().SleepUntil(at)
				for round := 0; round < 3; round++ {
					for i, fl := range flows {
						f := netem.Flow{Src: fl[0], Dst: fl[1]}
						if withMemo {
							f.Memo = &memos[i]
						}
						got := c.FilterSegment(f, 1400)
						want, shaper := ref.filterSegment(at, fl[0], fl[1])
						if shaper >= 0 {
							want.Shaper = c.shapers[shaper]
						}
						if got != want {
							t.Fatalf("%s memo=%v t=%v %s→%s: verdict %+v, reference %+v",
								sc.Name, withMemo, at, fl[0], fl[1], got, want)
						}
					}
				}
			}
			if got := c.Stats(); got != ref.stats {
				t.Errorf("%s memo=%v: stats %+v, reference %+v", sc.Name, withMemo, got, ref.stats)
			}
			if s := ref.stats; sc.Name == "wide" && (s.Resets == 0 || s.LossEvents == 0 || s.ThrottledSegments == 0) {
				t.Errorf("the composition exercised too little: %+v", s)
			}
		}
	}
}

// TestFilterSegmentSteadyStateAllocatesNothing: once a flow is matched,
// a segment costs the censor no allocation, whether the answer lives in
// the conn's memo or, for a flow without one, in the censor's scratch.
func TestFilterSegmentSteadyStateAllocatesNothing(t *testing.T) {
	c, flows := surgeCase(t)
	for _, f := range flows {
		allocs := testing.AllocsPerRun(100, func() {
			if v := c.FilterSegment(f, 1400); v.Shaper == nil {
				t.Fatal("throttle-surge did not throttle the client's segment")
			}
		})
		if allocs != 0 {
			t.Errorf("FilterSegment (memo %v): %v allocs per segment, want 0", f.Memo != nil, allocs)
		}
	}
}

// surgeCase is the censor.filter_ns probe's case: throttle-surge inside
// its window, and the client's flow to its guard without a memo (matched
// per call) and with a conn's (matched at its first segment).
func surgeCase(t testing.TB) (*Censor, []netem.Flow) {
	t.Helper()
	sc, err := Lookup("throttle-surge")
	if err != nil {
		t.Fatal(err)
	}
	n := netem.New(netem.WithSeed(1))
	t.Cleanup(n.Clock().Shutdown)
	c := Attach(n, sc, 1, 0.06)
	n.Clock().Sleep(6 * time.Second) // the throttle starts at t=5s
	return c, []netem.Flow{
		{Src: "client:40001", Dst: "guard-0:9001"},
		{Src: "client:40001", Dst: "guard-0:9001", Memo: new(netem.FlowMemo)},
	}
}

// BenchmarkFilterSegment times the censor's share of one segment.
func BenchmarkFilterSegment(b *testing.B) {
	c, flows := surgeCase(b)
	for i, name := range []string{"nomemo", "memo"} {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for j := 0; j < b.N; j++ {
				if v := c.FilterSegment(flows[i], 1400); v.Shaper == nil {
					b.Fatal("not throttled")
				}
			}
		})
	}
}
