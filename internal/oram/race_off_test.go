//go:build !race

package oram

const raceEnabled = false
