module viewplan/bench

go 1.22

require viewplan v0.0.0

// The benchmark driver's contract wants a compiled benchmark to be "a
// package of its own in the benchmark's directory, with its own build
// file"; this is that file. The benchmark compiles against the checkout
// it sits in.
replace viewplan => ../
