//go:build race

package service

// raceEnabled reports a -race build. The race detector makes sync.Pool
// drop a random quarter of its puts, so allocation counts of pooled
// paths vary from run to run under it.
const raceEnabled = true
