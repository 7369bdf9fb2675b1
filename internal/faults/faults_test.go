package faults

import (
	"testing"
	"time"

	"ptperf/internal/geo"
	"ptperf/internal/netem"
	"ptperf/internal/tor"
)

// testWorld is a two-relay world (guard-0, exit-0 on same-named hosts,
// like the testbed's volunteer fleet) plus a client host to dial from.
func testWorld(t *testing.T) (*netem.Network, *tor.Directory, *netem.Host, map[string]*tor.Relay) {
	t.Helper()
	n := netem.New(netem.WithSeed(9))
	t.Cleanup(n.Clock().Shutdown)
	dir := tor.NewDirectory()
	relays := map[string]*tor.Relay{}
	mk := func(name string, flags tor.Flag, loc geo.Location) {
		h := n.MustAddHost(netem.HostConfig{Name: name, Location: loc})
		r, err := tor.StartRelay(tor.RelayConfig{Name: name, Host: h, Directory: dir, Flags: flags, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		relays[name] = r
	}
	mk("guard-0", tor.FlagGuard|tor.FlagFast, geo.Frankfurt)
	mk("exit-0", tor.FlagExit|tor.FlagFast, geo.London)
	client := n.MustAddHost(netem.HostConfig{Name: "client", Location: geo.Toronto})
	return n, dir, client, relays
}

func TestCrashRestartCycle(t *testing.T) {
	n, dir, client, relays := testWorld(t)
	inj := Attach(n, dir, Plan{Name: "t", Events: []Event{
		{Kind: KindCrash, Target: "guard-0", At: 1 * time.Second, Duration: 2 * time.Second},
	}})
	inj.RegisterRelay(relays["guard-0"])

	conn, err := client.Dial("guard-0:9001")
	if err != nil {
		t.Fatal(err)
	}
	n.Clock().Sleep(1500 * time.Millisecond) // crash has fired, restart pending

	if _, ok := dir.Lookup("guard-0"); ok {
		t.Fatal("crashed relay still in the consensus")
	}
	if _, err := conn.Read(make([]byte, 1)); err == nil {
		t.Fatal("conn to the crashed relay survived")
	}
	if _, err := client.Dial("guard-0:9001"); err == nil {
		t.Fatal("dial to the crashed relay succeeded")
	}
	if !relays["guard-0"].Crashed() {
		t.Fatal("relay does not report crashed")
	}
	if got := inj.DownHosts(); len(got) != 1 || got[0] != "guard-0" {
		t.Fatalf("DownHosts = %v, want [guard-0]", got)
	}

	n.Clock().Sleep(2 * time.Second) // restart has fired
	if _, ok := dir.Lookup("guard-0"); !ok {
		t.Fatal("restarted relay missing from the consensus")
	}
	c2, err := client.Dial("guard-0:9001")
	if err != nil {
		t.Fatalf("dial after restart: %v", err)
	}
	c2.Close()
	if got := inj.DownHosts(); len(got) != 0 {
		t.Fatalf("DownHosts after restart = %v, want empty", got)
	}
	st := inj.Stats()
	if st.Crashes != 1 || st.Restarts != 1 || st.Skipped != 0 {
		t.Fatalf("stats = %+v, want 1 crash, 1 restart", st)
	}
}

// TestAttachArmsClockEvents: Attach registers no goroutine, and each
// fault's two halves are clock events that fire at their instants, not a
// nanosecond before: the crash at At, the restart Duration later, and so
// for the flap and the churn.
func TestAttachArmsClockEvents(t *testing.T) {
	n, dir, _, relays := testWorld(t)
	clock := n.Clock()
	before := clock.Registered()
	inj := Attach(n, dir, Plan{Events: []Event{
		{Kind: KindCrash, Target: "guard-0", At: 1 * time.Second, Duration: 2 * time.Second},
		{Kind: KindFlap, Target: "exit-0", At: 1500 * time.Millisecond, Duration: time.Second},
		{Kind: KindChurn, Target: "exit-0", At: 4 * time.Second, Duration: time.Second},
	}})
	if got := clock.Registered(); got != before {
		t.Fatalf("Attach registered %+d goroutines, want none", got-before)
	}
	inj.RegisterRelay(relays["guard-0"])
	steps := []struct {
		at   time.Duration
		name string
		n    func(Stats) int64
	}{
		{1 * time.Second, "crash", func(s Stats) int64 { return s.Crashes }},
		{1500 * time.Millisecond, "flap down", func(s Stats) int64 { return s.FlapsDown }},
		{2500 * time.Millisecond, "flap up", func(s Stats) int64 { return s.FlapsUp }},
		{3 * time.Second, "restart", func(s Stats) int64 { return s.Restarts }},
		{4 * time.Second, "withdraw", func(s Stats) int64 { return s.Withdrawn }},
		{5 * time.Second, "rejoin", func(s Stats) int64 { return s.Rejoined }},
	}
	for _, st := range steps {
		clock.SleepUntil(st.at - 1)
		if got := st.n(inj.Stats()); got != 0 {
			t.Fatalf("%s: %d before %v", st.name, got, st.at)
		}
		clock.SleepUntil(st.at)
		if got := st.n(inj.Stats()); got != 1 {
			t.Fatalf("%s: %d at %v, want 1", st.name, got, st.at)
		}
	}
	if s := inj.Stats(); s.Skipped != 0 {
		t.Fatalf("stats = %+v, want nothing skipped", s)
	}
}

func TestPermanentCrashStaysDown(t *testing.T) {
	n, dir, client, relays := testWorld(t)
	inj := Attach(n, dir, Plan{Events: []Event{
		{Kind: KindCrash, Target: "exit-0", At: 1 * time.Second}, // zero Duration: for good
	}})
	inj.RegisterRelay(relays["exit-0"])

	n.Clock().Sleep(5 * time.Second)
	if _, err := client.Dial("exit-0:9001"); err == nil {
		t.Fatal("dial to a permanently crashed relay succeeded")
	}
	if got := inj.DownHosts(); len(got) != 1 || got[0] != "exit-0" {
		t.Fatalf("DownHosts = %v, want [exit-0]", got)
	}
	st := inj.Stats()
	if st.Crashes != 1 || st.Restarts != 0 {
		t.Fatalf("stats = %+v, want 1 crash, 0 restarts", st)
	}
}

func TestFlapBlocksDialsThenRecovers(t *testing.T) {
	n, dir, client, _ := testWorld(t)
	inj := Attach(n, dir, Plan{Events: []Event{
		{Kind: KindFlap, Target: "exit-0", At: 1 * time.Second, Duration: 2 * time.Second},
	}})

	conn, err := client.Dial("exit-0:9001")
	if err != nil {
		t.Fatal(err)
	}
	n.Clock().Sleep(1500 * time.Millisecond) // link is down

	snap := n.Acct().Snapshot()
	if _, err := client.Dial("exit-0:9001"); err == nil {
		t.Fatal("dial to a flapped host succeeded")
	}
	// Link-down dial failures resolve before accounting, like no-such-host:
	// the censor's blocked-dial cross-check depends on this.
	post := n.Acct().Snapshot()
	if post.Dials != snap.Dials || post.DialsRefused != snap.DialsRefused {
		t.Fatalf("link-down dial moved accounting: dials %d→%d refused %d→%d",
			snap.Dials, post.Dials, snap.DialsRefused, post.DialsRefused)
	}
	if _, err := conn.Read(make([]byte, 1)); err == nil {
		t.Fatal("pre-flap conn survived the injector's abort")
	}
	if got := inj.DownHosts(); len(got) != 1 || got[0] != "exit-0" {
		t.Fatalf("DownHosts = %v, want [exit-0]", got)
	}

	n.Clock().Sleep(2 * time.Second) // link back up
	c2, err := client.Dial("exit-0:9001")
	if err != nil {
		t.Fatalf("dial after link-up: %v", err)
	}
	c2.Close()
	if got := inj.DownHosts(); len(got) != 0 {
		t.Fatalf("DownHosts after link-up = %v, want empty", got)
	}
	st := inj.Stats()
	if st.FlapsDown != 1 || st.FlapsUp != 1 {
		t.Fatalf("stats = %+v, want 1 flap down, 1 up", st)
	}
}

func TestChurnWithdrawsOnlyTheDescriptor(t *testing.T) {
	n, dir, client, _ := testWorld(t)
	inj := Attach(n, dir, Plan{Events: []Event{
		{Kind: KindChurn, Target: "guard-0", At: 1 * time.Second, Duration: 2 * time.Second},
	}})

	n.Clock().Sleep(1500 * time.Millisecond) // withdrawn
	if _, ok := dir.Lookup("guard-0"); ok {
		t.Fatal("churned relay still in the consensus")
	}
	// The relay itself keeps running: only consensus selection is blind.
	conn, err := client.Dial("guard-0:9001")
	if err != nil {
		t.Fatalf("dial to a churned (but running) relay: %v", err)
	}
	conn.Close()
	if got := inj.DownHosts(); len(got) != 0 {
		t.Fatalf("churn must not mark hosts down, got %v", got)
	}

	n.Clock().Sleep(2 * time.Second) // rejoined
	if _, ok := dir.Lookup("guard-0"); !ok {
		t.Fatal("churned relay never rejoined the consensus")
	}
	st := inj.Stats()
	if st.Withdrawn != 1 || st.Rejoined != 1 {
		t.Fatalf("stats = %+v, want 1 withdrawn, 1 rejoined", st)
	}
}

func TestUnresolvableTargetsAreSkipped(t *testing.T) {
	n, dir, _, _ := testWorld(t)
	inj := Attach(n, dir, Plan{Events: []Event{
		{Kind: KindCrash, Target: "ghost", At: 500 * time.Millisecond},
		{Kind: KindFlap, Target: "ghost", At: 500 * time.Millisecond},
		{Kind: KindChurn, Target: "ghost", At: 500 * time.Millisecond},
	}})
	n.Clock().Sleep(2 * time.Second)
	st := inj.Stats()
	if st.Skipped != 3 || st.Crashes+st.Restarts+st.FlapsDown+st.FlapsUp+st.Withdrawn+st.Rejoined != 0 {
		t.Fatalf("stats = %+v, want 3 skipped and no transitions", st)
	}
}

func TestEmptyPlan(t *testing.T) {
	var p *Plan
	if !p.Empty() {
		t.Fatal("nil plan must be empty")
	}
	if !(&Plan{Name: "x"}).Empty() {
		t.Fatal("event-less plan must be empty")
	}
	if (&Plan{Events: []Event{{Kind: KindCrash}}}).Empty() {
		t.Fatal("plan with events must not be empty")
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{KindCrash: "crash", KindFlap: "flap", KindChurn: "churn", Kind(9): "Kind(9)"} {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", int(k), got, want)
		}
	}
}
