package oram

// ScribbleFreed turns on, until the returned function turns it off again,
// the payload pool's scribbling of every buffer released to it: a use of a
// released buffer then reads 0xA5 bytes instead of a stale value.
func ScribbleFreed() (off func()) {
	scribbleFreed = true
	return func() { scribbleFreed = false }
}

// depth returns the number of MSHRs in flight at cycle now.
func (q *Queue) depth(now int64) int {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.prune(now)
	return len(q.live)
}
