package oram

// ScribbleFreed turns on, until the returned function turns it off again,
// the payload pool's scribbling of every buffer released to it: a use of a
// released buffer then reads 0xA5 bytes instead of a stale value.
func ScribbleFreed() (off func()) {
	scribbleFreed = true
	return func() { scribbleFreed = false }
}
