// The purity fixture pins Summary.Pure on the write shapes mapiterdet
// trusts it for: a write through a receiver or parameter reaches the
// caller, a write to the function's own variables does not.
package purity

type S struct {
	x int
	m map[int]int
}

func (s *S) Mutate() { s.x = 1 }

func MutateParam(p *S) { p.x = 2 }

func MutateElem(xs []int) { xs[0]++ }

func DeleteParam(m map[int]int) { delete(m, 0) }

func PureRead(s *S) int { return s.x }

// Rebind reassigns its parameter variable: the caller's pointer is
// untouched.
func Rebind(p *S) int {
	p = &S{x: 3}
	return p.x
}

// LocalWrite writes only through a variable it declares itself.
func LocalWrite() int {
	var s S
	s.x = 4
	m := map[int]int{1: 1}
	delete(m, 1)
	return s.x + len(m)
}
