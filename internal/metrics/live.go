package metrics

// EnableLive turns Publish on: the debug mux (internal/debugsrv) calls it
// when it serves c, so only a run with a reader builds live reports.
func (c *Collector) EnableLive() {
	if c != nil {
		c.served.Store(true)
	}
}

// Publish installs the collector's report at cycle now, naming engine, as
// the latest one Live returns. The simulation loop calls it every few
// hundred requests. The report is a copy of the single-writer state,
// built on the caller's goroutine and never written after the atomic
// swap, so readers never race the collector. Building one costs time
// linear in the series' windows, so Publish does nothing until
// EnableLive: without a reader, a run pays nothing for it.
func (c *Collector) Publish(now int64, engine string) {
	if c == nil || !c.served.Load() {
		return
	}
	r := c.Report(now, nil)
	r.Engine = engine
	c.live.Store(r)
}

// Live returns the latest published report (nil before the first
// Publish). Safe from any goroutine; the caller must not modify it.
func (c *Collector) Live() *Report {
	if c == nil {
		return nil
	}
	return c.live.Load()
}
