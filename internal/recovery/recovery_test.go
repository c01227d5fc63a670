package recovery

import (
	"bytes"
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

// captureHeap checkpoints regions of heap and returns the checkpoint with a
// restore of it into a heap of the same size full of garbage.
func captureHeap(heap []byte, regions []Region) (*Checkpoint, []byte) {
	cp := Capture(CursorStart, 0, regions, func(r Region) []byte { return heap[r.Off : r.Off+r.Len] })
	restored := bytes.Repeat([]byte{0xA5}, len(heap))
	cp.Restore(func(r Region, data []byte) {
		if len(data) != r.Len {
			panic(fmt.Sprintf("write of %d bytes into a %d-byte region", len(data), r.Len))
		}
		copy(restored[r.Off:r.Off+r.Len], data)
	})
	return cp, restored
}

// TestCheckpointElidesZeroRegion: an all-zero region, several pages long
// and not a whole number of them, keeps no data, still counts its length in
// Bytes, and restores as zeros over garbage.
func TestCheckpointElidesZeroRegion(t *testing.T) {
	heap := make([]byte, 3*len(zeroPage)+100)
	heap[0] = 7
	zero := Region{Off: 1, Len: len(heap) - 1}
	cp, restored := captureHeap(heap, []Region{{Off: 0, Len: 1}, zero})
	if cp.data[1] != nil {
		t.Errorf("all-zero region stored %d bytes", len(cp.data[1]))
	}
	if cp.Bytes() != len(heap) {
		t.Errorf("Bytes = %d, want the logical size %d", cp.Bytes(), len(heap))
	}
	if !bytes.Equal(restored, heap) {
		t.Error("restore did not write zeros over the elided region")
	}
}

// TestCheckpointKeepsLateNonZeroRegion: a region whose only non-zero byte is
// its last is copied, and the copy restores it.
func TestCheckpointKeepsLateNonZeroRegion(t *testing.T) {
	heap := make([]byte, 2*len(zeroPage)+1)
	heap[len(heap)-1] = 1
	cp, restored := captureHeap(heap, []Region{{Off: 0, Len: len(heap)}})
	if len(cp.data[0]) != len(heap) {
		t.Fatalf("region non-zero in its last byte stored %d bytes, want %d", len(cp.data[0]), len(heap))
	}
	heap[len(heap)-1] = 2 // the stored bytes are a copy
	if restored[len(restored)-1] != 1 || !bytes.Equal(restored[:len(heap)-1], make([]byte, len(heap)-1)) {
		t.Error("restore of a region non-zero in its last byte is wrong")
	}
}

// TestCheckpointEmptyRegion: an empty region stores nothing, adds nothing to
// Bytes, and restores without a write.
func TestCheckpointEmptyRegion(t *testing.T) {
	heap := []byte{1, 2, 3}
	cp := Capture(CursorStart, 0, []Region{{Off: 1, Len: 0}, {Off: 0, Len: 3}}, func(r Region) []byte { return heap[r.Off : r.Off+r.Len] })
	if cp.Bytes() != 3 {
		t.Errorf("Bytes = %d, want 3", cp.Bytes())
	}
	var writes []Region
	cp.Restore(func(r Region, data []byte) { writes = append(writes, r) })
	if !reflect.DeepEqual(writes, []Region{{Off: 0, Len: 3}}) {
		t.Errorf("restore writes %v, want only the non-empty region", writes)
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
