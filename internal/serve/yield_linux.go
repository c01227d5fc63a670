package serve

import "syscall"

// osYield gives up the rest of the calling thread's time slice.
//
// The Go runtime keeps more threads than GOMAXPROCS and rotates which of
// them run (a P taken from a thread inside a syscall at a GC stop-the-world
// restarts on another thread), and the kernel does not always spread the
// running ones: on a 2-vCPU KVM guest two busy threads were measured sharing
// one CPU for tens of milliseconds at a time while the other CPU idled, with
// next to no migrations (EXPERIMENTS.md, "serve-small p99").  Neither ever
// blocks, so they alternate at scheduler-tick granularity and whichever job
// is on the descheduled thread waits a whole tick — 4 ms at HZ=250, ten
// times a small job.  An executor that yields between jobs hands the CPU to
// such a peer at once, which bounds that wait to one job; with nothing else
// runnable on the CPU the call returns immediately (about a microsecond).
func osYield() {
	syscall.Syscall(syscall.SYS_SCHED_YIELD, 0, 0, 0)
}
