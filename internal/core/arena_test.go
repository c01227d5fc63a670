package core

import (
	"fmt"
	"sync"
	"testing"

	"cucc/internal/csched"
	"cucc/internal/interp"
	"cucc/internal/kir"
)

// TestBackToBackLaunchesRecycleArenas: phase 2 lends each rank its send arena
// from the process-wide slab free list and takes it back after the gather
// joins.  Two 8-node clusters, one on the barrier path and one overlapped,
// launch back to back at the same time, so an arena one cluster returned is
// soon written by a rank of the other.  Under the race detector an arena
// returned before every peer has read the messages cut from it shows up as a
// race; without it, every launch must still leave the nodes identical
// (Session.Verify) and node 0 holding src*3+1.
func TestBackToBackLaunchesRecycleArenas(t *testing.T) {
	const nodes, launches = 8, 6
	prog := MustCompile(collectiveScaleSrc)
	choices := []csched.Choice{{}, {Overlap: true}}
	errs := make([]error, len(choices))
	var wg sync.WaitGroup
	for i, choice := range choices {
		c := newCluster(t, nodes)
		wg.Add(1)
		go func() {
			defer wg.Done()
			src := c.Alloc(kir.F32, collectiveBlocks*collectiveBS)
			dst := c.Alloc(kir.F32, collectiveBlocks*collectiveBS)
			sess := NewSession(c, prog)
			sess.Collective = choice
			sess.Verify = true
			vals := make([]float32, collectiveBlocks*collectiveBS)
			for l := 0; l < launches; l++ {
				// Every launch of either cluster gathers different bytes, so
				// a message read from an arena someone else already refilled
				// leaves its receiver unlike the chunk's owner.
				for j := range vals {
					vals[j] = float32((j + 31*i + 7*l) % 97)
				}
				if errs[i] = c.WriteAllF32(src, vals); errs[i] != nil {
					return
				}
				if _, err := sess.Launch(LaunchSpec{
					Kernel: "cscale",
					Grid:   interp.Dim1(collectiveBlocks),
					Block:  interp.Dim1(collectiveBS),
					Args:   []Arg{BufArg(src), BufArg(dst), IntArg(collectiveN)},
				}); err != nil {
					errs[i] = fmt.Errorf("choice %s, launch %d: %w", choice, l, err)
					return
				}
				for id, v := range c.ReadF32(0, dst)[:collectiveN] {
					if want := vals[id]*3 + 1; v != want {
						errs[i] = fmt.Errorf("choice %s, launch %d: dst[%d] = %v, want %v", choice, l, id, v, want)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
}
