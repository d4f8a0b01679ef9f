//go:build !amd64

package gf256

func archTestArms() []testArm { return nil }
