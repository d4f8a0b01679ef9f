//go:build !amd64

package flow

// Off amd64 the file is generated and verified word by word.
var vectorFile = false

func fill(state uint64, p []byte) { fillWords(state, p) }

func matches(state uint64, p []byte) bool { return matchWords(state, p) }
