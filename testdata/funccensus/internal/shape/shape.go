// Package shape is the function census's fixture: one exported function or
// method of each kind the census must tell apart.
package shape

// Shape is the interface the fixture's program uses.
type Shape interface{ Area() int }

// Square is the type behind the interface.
type Square struct{ n int }

// New is called by the program.
func New(n int) Shape { return Square{n} }

// Area is called only through Shape: a caller.
func (s Square) Area() int { return s.n * s.n }

// Side is called by nothing.
func (s Square) Side() int { return s.n }

// Unused is called by nothing.
func Unused() int { return 1 }

// Spin calls only itself, which is no caller.
func Spin(n int) int {
	if n == 0 {
		return 0
	}
	return Spin(n - 1)
}
