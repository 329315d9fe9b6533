//go:build race

package oram

// raceEnabled reports a -race build: its sync.Pool drops a share of what
// is put back, so an allocation count there says nothing about the code.
const raceEnabled = true
