// The benchmark is a module of its own so that nothing outside bench/ has
// to change to build it; the replace keeps it on the checkout's own code,
// and the cucc/ path prefix is what lets it import cucc/internal/...
module cucc/bench

go 1.24

require cucc v0.0.0

replace cucc => ../
