//go:build race

package core

// raceEnabled reports that the race detector is instrumenting this build.
// sync.Pool then drops a share of its Puts on purpose, so a send that
// takes its coded packet from the free list is not allocation-free; the
// test that counts skips.
const raceEnabled = true
