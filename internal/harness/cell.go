package harness

import (
	"fmt"

	"ptperf/internal/obs"
	"ptperf/internal/sim"
	"ptperf/internal/testbed"
)

// cell is one world computation of a campaign: build the world of opts,
// run measure over it, get an Out. in holds every harness input measure
// can read, and the cache digest is derived from it, so a knob that is
// not declared in In cannot reach a result and one that is invalidates
// the entry when it changes. That only holds while measure sees nothing
// but its two arguments: it must be a top-level function, never a
// closure or a method on *Runner (TestMeasureFunctionsAreTopLevel).
// Values the world already carries — the catalog sizes, the scheduler
// policy — are read from the world, whose options are digested too.
//
// Cells are built by methods on Config and submitted with submit or
// waitAll. An Out is a plain value tree that obs.EncodeValue encodes
// (bools, ints, float64s, strings, slices, maps, pointers and exported
// struct fields): a cache hit decodes exactly the value computed, which
// is what makes it render byte-identically. Unexported fields are not
// stored, so a render must not read one.
type cell[In, Out any] struct {
	key     string
	opts    testbed.Options
	in      In
	measure func(*testbed.World, In) (Out, error)
}

// digest is the cell's content address: the code version, the key and
// the defaulted world options (obs.CellDigest), and In. Jobs, Plot,
// Progress and MetricsInterval are in no In: the first cannot change
// results (the determinism contract), the others only touch what is
// rendered or observed, and observing a world moves none of its bytes.
func (c cell[In, Out]) digest() string {
	return obs.CellDigest(c.key, c.opts, c.in)
}

// submit starts (once) the keyed cell on the shard executor and returns
// its future; later calls with the same key return the same future.
// This is the Runner's memoization: experiments submit every cell they
// need up front, then join and render in canonical order, so reports
// never depend on completion order. Cell bodies follow the sim
// package's determinism contract — they build their own world, return
// values, never write to r.out, and never wait on another cell's future
// (a full executor would deadlock).
func submit[In, Out any](r *Runner, c cell[In, Out]) *sim.Future[Out] {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.cells[c.key]; ok {
		return f.(*sim.Future[Out])
	}
	r.monitor.Register(c.key)
	f := sim.Submit(r.exec, func() (Out, error) {
		r.monitor.Start(c.key)
		v, err := compute(r, c)
		if err != nil {
			err = fmt.Errorf("%s: %w", c.key, err)
		}
		r.monitor.Finish(c.key, err)
		return v, err
	})
	r.cells[c.key] = f
	return f
}

// compute answers the cell from the cache, else builds its world,
// measures, closes the world and stores the result. The recorder is
// attached between world build and measure, so timelines cover exactly
// the measured campaign. The world is closed on every way out, a
// measure that fails or panics included, and after everything a report
// reads from it has been decided.
func compute[In, Out any](r *Runner, c cell[In, Out]) (Out, error) {
	var digest string
	if r.cache != nil {
		digest = c.digest()
		var v Out
		if e, ok := r.cache.LoadInto(digest, &v, r.cfg.MetricsInterval); ok {
			r.monitor.Cached(c.key)
			if r.cfg.MetricsInterval > 0 {
				r.setTimeline(c.key, e.Timeline)
			}
			return v, nil
		}
	}
	var zero Out
	w, err := testbed.New(c.opts)
	if err != nil {
		return zero, err
	}
	defer w.Close()
	r.monitor.Horizon(c.key, w.Net.Clock().Now)
	var rec *obs.Recorder
	if r.cfg.MetricsInterval > 0 {
		rec = obs.Attach(w, r.cfg.MetricsInterval)
	}
	v, err := c.measure(w, c.in)
	r.addSimStats(w.Net.Clock().Stats())
	if err != nil {
		return zero, err
	}
	var tl *obs.Timeline
	if rec != nil {
		tl = rec.Close()
		r.setTimeline(c.key, tl)
	}
	if r.cache != nil {
		raw, err := obs.EncodeValue(v)
		if err != nil {
			return zero, fmt.Errorf("cache encode: %w", err)
		}
		if err := r.cache.Store(&obs.Entry{Key: c.key, Digest: digest, Value: raw, Timeline: tl}); err != nil {
			return zero, err
		}
	}
	return v, nil
}

// waitAll submits every cell before joining any, so a sweep's worlds
// are all in flight at once, and joins them in the order given.
func waitAll[In, Out any](r *Runner, cells []cell[In, Out]) ([]Out, error) {
	futures := make([]*sim.Future[Out], len(cells))
	for i, c := range cells {
		futures[i] = submit(r, c)
	}
	out := make([]Out, len(cells))
	for i, f := range futures {
		v, err := f.Wait()
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// one and each adapt an experiment's cell list to Experiment.prefetch:
// the same cells its run joins, submitted with the futures dropped.
func one[In, Out any](mk func(Config) cell[In, Out]) func(*Runner) {
	return func(r *Runner) { submit(r, mk(r.cfg)) }
}

func each[In, Out any](mk func(Config) []cell[In, Out]) func(*Runner) {
	return func(r *Runner) {
		for _, c := range mk(r.cfg) {
			submit(r, c)
		}
	}
}
