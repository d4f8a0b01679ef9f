//go:build !amd64

package gf256

func archTestArms() []testArm { return nil }

// combineWidths: off amd64 every arm's multi-row form has one width.
func combineWidths(string) []int { return []int{0} }

func withCombineWidth(_ int, f func()) { f() }
