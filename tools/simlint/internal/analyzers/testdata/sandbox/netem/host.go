package netem

// serve spawns a goroutine per conn where Listener.Serve calls the
// handler from the run queue.
func (h *Host) serve(c *Clock) {
	c.Go(func() {}) // want `a call of \(netem\.Clock\)\.Go in sandbox/netem`
}
