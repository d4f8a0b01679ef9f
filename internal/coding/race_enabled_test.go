//go:build race

package coding

// raceEnabled reports that the race detector is instrumenting this build.
// sync.Pool then drops a share of its Puts on purpose, so the free list
// neither returns every packet put back nor keeps the steady state
// allocation-free; the tests that count either relax or skip.
const raceEnabled = true
