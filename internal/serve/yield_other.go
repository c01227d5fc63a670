//go:build !linux

package serve

// osYield is a no-op where the executor has no thread-level yield to call;
// see yield_linux.go for what it is for.
func osYield() {}
