package testbed

import (
	"fmt"
	"time"

	"ptperf/internal/fetch"
	"ptperf/internal/geo"
	"ptperf/internal/netem"
	"ptperf/internal/tor"
)

// This file is the relay-overload / guard-contention scenario family:
// N bulk competitors share the measurement path's guard relay, so what
// the measured client experiences depends on who else is queued at that
// guard — the relay-side congestion the cell scheduler makes visible.
// Like censor scenarios, everything is driven off the virtual clock
// (staggered starts, think-time gaps), so same-seed runs are
// byte-identical at any -jobs value.

// ContentionLevel is one competitor-load point of the family.
type ContentionLevel struct {
	// Name labels the level in reports ("idle" is the baseline).
	Name string
	// Competitors is the number of bulk clients sharing the guard.
	Competitors int
}

// Every competitor loops the same way at every level: it starts
// contentionStagger after the one before it, then downloads a
// contentionFileMB file (paper-scale MB, byte-scaled on use) and idles
// contentionThink, until Stop.
const (
	contentionFileMB  = 20
	contentionThink   = 250 * time.Millisecond
	contentionStagger = 500 * time.Millisecond
)

// RampTime is how long after Start the last competitor has begun.
func (lv ContentionLevel) RampTime() time.Duration {
	return time.Duration(lv.Competitors)*contentionStagger + time.Second
}

// ContentionLevels is the canonical guard-contention sweep, from the
// uncontended baseline to relay overload.
var ContentionLevels = []ContentionLevel{
	{Name: "idle", Competitors: 0},
	{Name: "light", Competitors: 2},
	{Name: "busy", Competitors: 4},
	{Name: "overload", Competitors: 8},
}

// ContentionLevelNames lists the family in sweep order.
func ContentionLevelNames() []string {
	out := make([]string, len(ContentionLevels))
	for i, lv := range ContentionLevels {
		out[i] = lv.Name
	}
	return out
}

// ContentionRig extends the shared-first-hop rig (§4.2.1's fixed
// circuit) with a competitor fleet: vanilla Tor clients pinned to the
// same guard, looping bulk downloads of the origin. The measured
// methods (tor, obfs4, webtunnel) ride the identical guard, so the
// only variable across levels is relay-side contention.
type ContentionRig struct {
	*FixedCircuitRig
	competitors []*tor.Client
	stopped     bool
	wg          *netem.WaitGroup
}

// contentionGuardShare is the contended guard's relayed-bandwidth share
// of its NIC rate. Like a real relay whose token-bucket BandwidthRate
// sits below its link speed, the cell scheduler — not the link — is the
// binding constraint, so overload shows up as measurable queueing delay
// in the relay instead of invisible pipe backlog upstream.
const contentionGuardShare = 0.5

// NewContentionRig builds the rig for one load level: a shared first
// hop whose scheduler budget is provisioned below its links, plus the
// competitor fleet.
func (w *World) NewContentionRig(lv ContentionLevel) (*ContentionRig, error) {
	fixed, err := w.newSharedHopRig("contended-hop", contentionGuardShare, 998)
	if err != nil {
		return nil, err
	}
	r := &ContentionRig{
		FixedCircuitRig: fixed,
		wg:              netem.NewWaitGroup(w.Net.Clock()),
	}
	g := fixed.Relay.Descriptor()
	for i := 0; i < lv.Competitors; i++ {
		host, err := w.Net.AddHost(netem.HostConfig{
			Name:        fmt.Sprintf("competitor-%d", i),
			Location:    geo.Clients[i%len(geo.Clients)],
			UplinkBps:   50 << 20 * w.Opts.ByteScale,
			DownlinkBps: 50 << 20 * w.Opts.ByteScale,
		})
		if err != nil {
			return nil, err
		}
		// Pinned guard, Tor-selected middle/exit: the competitors
		// converge on the measurement guard and fan out behind it.
		cl, err := w.newTorClient(host, pin{guard: g}, nil, w.Opts.Seed*131+int64(i))
		if err != nil {
			return nil, err
		}
		r.competitors = append(r.competitors, cl)
	}
	return r, nil
}

// Start launches the competitor loops as simulation goroutines:
// staggered starts, then bulk download / think / repeat until Stop.
func (r *ContentionRig) Start() {
	clock := r.world.Net.Clock()
	size := r.world.Bytes(contentionFileMB << 20)
	for i, cl := range r.competitors {
		i, cl := i, cl
		r.wg.Add(1)
		clock.Go(func() {
			defer r.wg.Done()
			clock.Sleep(time.Duration(i+1) * contentionStagger)
			c := &fetch.Client{Net: r.world.Net, Dial: TorDialer(cl), Timeout: 600 * time.Second}
			for !r.stopped {
				c.DownloadFile(r.world.Origin.Addr(), size)
				if r.stopped {
					return
				}
				clock.Sleep(contentionThink)
			}
		})
	}
}

// Stop halts the competitor fleet: kills their circuits (a download in
// flight errors out) and waits for every loop to exit, so the world
// quiesces before its task returns.
func (r *ContentionRig) Stop() {
	r.stopped = true
	for _, cl := range r.competitors {
		cl.NewCircuit()
	}
	r.wg.Wait()
}
