package mem

import (
	"errors"
	"testing"
)

func TestMemStoreBatchAllOrNothing(t *testing.T) {
	m := NewMemStore()
	if err := m.WriteBlocks([]BlockWrite{{PID: PageID{SegUID: 2, Index: 0}, Data: []uint64{7}}}); err != nil {
		t.Fatalf("WriteBlocks: %v", err)
	}
	if _, err := m.ReadBlocks([]PageID{{SegUID: 2, Index: 0}, {SegUID: 2, Index: 1}}); !errors.Is(err, ErrNoBlock) {
		t.Fatalf("want ErrNoBlock, got %v", err)
	}
	if got, err := m.ReadBlocks([]PageID{{SegUID: 2, Index: 0}}); err != nil || got[0][0] != 7 {
		t.Fatalf("ReadBlocks after failed batch: %v %v", got, err)
	}
}
