package main

import (
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// The reference box is a small virtual machine on a shared host. This
// file holds what the benchmark knows about that: the one wall-clock
// read, and the two corrections that make host times repeat (README.md,
// "Steadiness").

// hostNow is the benchmark's only wall-clock read. Everything the
// benchmark times is host time by definition: it measures the
// simulator from outside, never the simulated network.
func hostNow() time.Time {
	return time.Now() //simlint:allow wallclock -- the benchmark times the simulator on the host clock; this helper is its single wall-clock read
}

// hostPause spins for d of host time without a timer, so the module
// keeps a single wall-clock call site.
func hostPause(d time.Duration) {
	for start := hostNow(); hostNow().Sub(start) < d; {
		runtime.Gosched()
	}
}

// readStolen returns the CPU time the hypervisor has withheld from this
// machine since boot, summed over its CPUs: the steal column of the
// first line of /proc/stat. It returns 0 where there is no such column.
func readStolen() time.Duration {
	const userHZ = 100 // the unit of /proc/stat on every Linux port
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal …
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return 0
	}
	return time.Duration(ticks) * time.Second / userHZ
}

// unshared estimates the wall time an interval would have taken had the
// hypervisor withheld nothing. A campaign is one run token passed
// between goroutines, so it stands still while the CPU that carries it
// is withheld, and a host short of CPU withholds from all of the
// machine's CPUs alike: 1/NumCPU of the stolen time falls on the
// campaign. README.md, "Steadiness", has the measurements; on a host
// that steals nothing this changes nothing.
func unshared(wall, stolen float64) float64 {
	return wall - stolen/float64(runtime.NumCPU())
}

// handoffRefNS is the goroutine round trip of the reference host state:
// what handoffNS reads on the 2-vCPU reference box when it is fast.
const handoffRefNS = 400

// handoffNS times a round trip between two goroutines over unbuffered
// channels, in host nanoseconds. Every hand-off readies a goroutine,
// which makes the runtime wake an idle thread through the futex; what
// that costs a virtual machine depends on what else its host is doing,
// and a campaign, which is one long chain of such hand-offs, slows down
// and speeds up with it by tens of percent while pure computation does
// not move.
func handoffNS() float64 {
	const trips = 40000 // about 20 ms
	ping, pong := make(chan struct{}), make(chan struct{})
	go func() {
		for range ping {
			pong <- struct{}{}
		}
		close(pong)
	}()
	stolen, start := readStolen(), hostNow()
	for i := 0; i < trips; i++ {
		ping <- struct{}{}
		<-pong
	}
	took := unshared(hostNow().Sub(start).Seconds(), (readStolen() - stolen).Seconds())
	close(ping)
	<-pong
	return took * 1e9 / trips
}

// gauge reads handoffNS between the children of a run.
type gauge struct{ last float64 }

func newGauge() *gauge { return &gauge{last: handoffNS()} }

// slowdown takes the next reading and returns how much slower than the
// reference state the host was since the previous one. Host times
// divided by it are times at the reference state.
func (g *gauge) slowdown() float64 {
	next := handoffNS()
	s := (g.last + next) / 2 / handoffRefNS
	g.last = next
	return s
}
