package recovery

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"cucc/internal/transport"
)

// nodeErr mirrors cluster.NodeError for classification tests without
// importing cluster (which imports this package).
type nodeErr struct {
	node int
	err  error
}

func (e *nodeErr) Error() string   { return fmt.Sprintf("node %d: %v", e.node, e.err) }
func (e *nodeErr) Unwrap() error   { return e.err }
func (e *nodeErr) FailedNode() int { return e.node }

func TestClassifySplitsFailuresFromVictims(t *testing.T) {
	crash := fmt.Errorf("gather: %w", transport.ErrKilled)
	victim := fmt.Errorf("%w: node 1 crashed", transport.ErrAborted)
	err := errors.Join(
		&nodeErr{node: 1, err: crash},
		&nodeErr{node: 0, err: victim},
		&nodeErr{node: 3, err: victim},
	)
	failed, ok := Classify(err)
	if !ok || !reflect.DeepEqual(failed, []int{1}) {
		t.Fatalf("Classify = %v, %v; want [1], true", failed, ok)
	}
}

func TestClassifyAllAbortedIsUnrecoverable(t *testing.T) {
	deadline := errors.New("deadline exceeded")
	victim := fmt.Errorf("%w: %w", transport.ErrAborted, deadline)
	err := errors.Join(&nodeErr{node: 0, err: victim}, &nodeErr{node: 1, err: victim})
	if failed, ok := Classify(err); ok {
		t.Fatalf("external abort classified as recoverable: failed=%v", failed)
	}
	if _, ok := Classify(errors.New("no node attribution")); ok {
		t.Fatal("unattributed error classified as recoverable")
	}
}

func TestClassifyMultipleFailuresSorted(t *testing.T) {
	err := errors.Join(
		&nodeErr{node: 3, err: transport.ErrKilled},
		&nodeErr{node: 1, err: transport.ErrTimeout},
	)
	failed, ok := Classify(err)
	if !ok || !reflect.DeepEqual(failed, []int{1, 3}) {
		t.Fatalf("Classify = %v, %v; want [1 3], true", failed, ok)
	}
}

func TestCheckpointCaptureRestore(t *testing.T) {
	heap := []byte("0123456789abcdef")
	regions := []Region{{Off: 2, Len: 3}, {Off: 10, Len: 4}}
	cp := Capture(CursorStart, 0, regions, func(r Region) []byte {
		return heap[r.Off : r.Off+r.Len]
	})
	if cp.Bytes() != 7 {
		t.Fatalf("Bytes = %d, want 7", cp.Bytes())
	}
	if cp.Cursor != CursorStart || cp.DistEnd != 0 || cp.Cursor.String() != "start" {
		t.Fatalf("cursor = %v/%d, want start/0", cp.Cursor, cp.DistEnd)
	}
	// The snapshot is a copy: later heap writes must not leak in.
	copy(heap, "XXXXXXXXXXXXXXXX")
	restored := make([]byte, len(heap))
	cp.Restore(func(r Region, data []byte) {
		copy(restored[r.Off:], data)
	})
	if string(restored[2:5]) != "234" || string(restored[10:14]) != "abcd" {
		t.Fatalf("restored regions corrupted: %q", restored)
	}
}

func TestPolicyDefaults(t *testing.T) {
	var p Policy
	if p.Enabled {
		t.Fatal("zero policy must be disabled")
	}
	if p.EffectiveMaxRestores() != DefaultMaxRestores || p.EffectiveMinRanks() != 1 {
		t.Fatalf("defaults = %d/%d", p.EffectiveMaxRestores(), p.EffectiveMinRanks())
	}
	p = Policy{Enabled: true, MaxRestores: 7, MinRanks: 2}
	if p.EffectiveMaxRestores() != 7 || p.EffectiveMinRanks() != 2 {
		t.Fatalf("overrides ignored: %d/%d", p.EffectiveMaxRestores(), p.EffectiveMinRanks())
	}
}

func TestSurvivors(t *testing.T) {
	got := Survivors([]int{0, 1, 2, 3}, []int{1, 3})
	if !reflect.DeepEqual(got, []int{0, 2}) {
		t.Fatalf("Survivors = %v, want [0 2]", got)
	}
}
