//go:build !race

package coding

const raceEnabled = false
