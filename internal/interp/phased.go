package interp

import (
	"fmt"
	"iter"
)

// runPhased executes a barrier kernel's block thread-serially: every thread
// is a coroutine, and a round resumes the live ones in thread order, each
// running until its next __syncthreads or its end.  When a round ends every
// live thread is waiting at a barrier, so the next round releases them all:
// a count-based cyclic barrier with early departure (a thread that returns,
// or fails, leaves it), which is what CUDA requires of the block's *live*
// threads.  The schedule is the lane VM's at lane width 1.
//
// A failing thread stops while the others run to their end; the block then
// reports the first error in thread order.  A panic in a thread surfaces on
// the caller's goroutine.
func (r *Runner) runPhased() (Work, error) {
	l := r.l
	n := l.Block.X * max(l.Block.Y, 1)
	if r.threads == nil {
		r.threads = make([]thread, n)
		for i := range r.threads {
			r.threads[i].slots = make([]Value, len(r.image))
		}
	}
	resume, stops := make([]func() (struct{}, bool), n), make([]func(), n)
	for i := range r.threads {
		t := &r.threads[i]
		r.start(t, i%l.Block.X, i/l.Block.X)
		t.work = Work{}
		resume[i], stops[i] = iter.Pull(func(yield func(struct{}) bool) {
			t.yield = yield
			r.body(t)
		})
	}
	// Normally every coroutine has finished by the return; after a panic
	// the suspended ones are stopped, and each returns from its barrier.
	defer func() {
		for _, stop := range stops {
			stop()
		}
	}()
	for live := resume; len(live) > 0; {
		waiting := live[:0]
		for _, next := range live {
			if _, ok := next(); ok {
				waiting = append(waiting, next)
			}
		}
		live = waiting
	}
	var w Work
	for i := range r.threads {
		t := &r.threads[i]
		if t.err != nil {
			return Work{}, fmt.Errorf("interp: phased execution: %w", t.err)
		}
		w.Add(t.work)
	}
	return w, nil
}
