package mem

import "sync"

// bulkIndexSlack bounds the bulk index at this many entries per bulk-store
// block. Stale entries accumulate between trips to the top of the heap;
// past the bound the index is rebuilt from the block table.
const bulkIndexSlack = 4

// bulkIndex orders the occupied bulk-store blocks by the page they hold,
// so the bulk-freeing process reads the lowest-numbered page without
// scanning the block table. It is a binary min-heap fed at the one place
// a block is filled (fillBlock, called by EvictToBulk), written out by
// hand because container/heap boxes every entry pushed or popped. Frees
// never touch it: every fill stamps its block with the next value of a
// sequence, the entry carries the same stamp, and an entry whose block
// has since been freed or refilled no longer matches the block and is
// dropped when it reaches the top.
//
// Lock order: the index lock sits between a segment's page table and the
// block stripes. Filling, picking and rebuilding take block stripes while
// holding the index lock; no path holds a stripe while waiting for it.
type bulkIndex struct {
	mu    sync.Mutex
	heap  []bulkEntry
	fills uint64 // the last fill stamp issued
}

// bulkEntry records that block held pid as of fill stamp fill.
type bulkEntry struct {
	pid   PageID
	block BlockID
	fill  uint64
}

// before orders entries by page: segment UID, then page index.
func (e bulkEntry) before(o bulkEntry) bool {
	if e.pid.SegUID != o.pid.SegUID {
		return e.pid.SegUID < o.pid.SegUID
	}
	return e.pid.Index < o.pid.Index
}

func (x *bulkIndex) up(i int) {
	h := x.heap
	for i > 0 {
		parent := (i - 1) / 2
		if !h[i].before(h[parent]) {
			return
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func (x *bulkIndex) down(i int) {
	h := x.heap
	for {
		least := i
		if l := 2*i + 1; l < len(h) && h[l].before(h[least]) {
			least = l
		}
		if r := 2*i + 2; r < len(h) && h[r].before(h[least]) {
			least = r
		}
		if least == i {
			return
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
}

// popTop removes the lowest entry.
func (x *bulkIndex) popTop() {
	last := len(x.heap) - 1
	x.heap[0] = x.heap[last]
	x.heap = x.heap[:last]
	x.down(0)
}

// blockHolds reports whether block e.block still holds the fill e records.
func (s *Store) blockHolds(e bulkEntry) bool {
	bi := int(e.block) & stripeMask
	s.blockMu[bi].Lock()
	bl := &s.blocks[e.block]
	held := !bl.free && bl.fill == e.fill
	s.blockMu[bi].Unlock()
	return held
}

// fillBlock publishes page data into freshly allocated block b and
// indexes it under a new fill stamp. The caller holds pid's segment lock
// and not b's stripe.
func (s *Store) fillBlock(b BlockID, pid PageID, data []uint64) {
	x := &s.bulk
	x.mu.Lock()
	x.fills++
	e := bulkEntry{pid: pid, block: b, fill: x.fills}
	bi := int(b) & stripeMask
	s.blockMu[bi].Lock()
	s.blocks[b] = block{pid: pid, data: data, fill: e.fill}
	s.blockMu[bi].Unlock()
	x.heap = append(x.heap, e)
	x.up(len(x.heap) - 1)
	if len(x.heap) > bulkIndexSlack*len(s.blocks) {
		s.rebuildBulkIndexLocked()
	}
	x.mu.Unlock()
}

// rebuildBulkIndexLocked replaces the index with one entry per occupied
// block, read from the block table. The caller holds the index lock.
func (s *Store) rebuildBulkIndexLocked() {
	x := &s.bulk
	x.heap = x.heap[:0]
	for i := range s.blocks {
		bi := i & stripeMask
		s.blockMu[bi].Lock()
		if bl := &s.blocks[i]; !bl.free {
			x.heap = append(x.heap, bulkEntry{pid: bl.pid, block: BlockID(i), fill: bl.fill})
		}
		s.blockMu[bi].Unlock()
	}
	for i := len(x.heap)/2 - 1; i >= 0; i-- {
		x.down(i)
	}
}

// LowestBulkPage returns the occupied bulk-store block holding the
// lowest-numbered page (by segment UID, then page index), or false when
// the bulk store holds no page. Entries made stale by frees and refills
// are dropped on the way; the call allocates nothing.
func (s *Store) LowestBulkPage() (BlockID, bool) {
	x := &s.bulk
	x.mu.Lock()
	defer x.mu.Unlock()
	for len(x.heap) > 0 {
		if top := x.heap[0]; s.blockHolds(top) {
			return top.block, true
		}
		x.popTop()
	}
	return 0, false
}
