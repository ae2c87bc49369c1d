package main

import (
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/metrics"
)

// timedBacking forwards every mem.BackingStore method to the store it
// wraps, timing each call when a tracer is attached. It sits in
// mem.Config.Backing, so it sees exactly the traffic the kernel sends to
// the durable level; it also forwards SetMetrics, so the kernel still
// adopts the wrapped store's counters into its registry at boot.
type timedBacking struct {
	inner mem.BackingStore
	tr    *tracer
	// clk is the kernel clock, set once the kernel is booted.
	clk *machine.Clock
}

var _ mem.BackingStore = (*timedBacking)(nil)

func (b *timedBacking) ReadBlock(pid mem.PageID) ([]uint64, error) {
	s := b.tr.begin(b.clk)
	data, err := b.inner.ReadBlock(pid)
	b.tr.end(kBlockRead, b.clk, s)
	return data, err
}

func (b *timedBacking) WriteBlock(pid mem.PageID, data []uint64) error {
	s := b.tr.begin(b.clk)
	err := b.inner.WriteBlock(pid, data)
	b.tr.end(kBlockWrite, b.clk, s)
	return err
}

func (b *timedBacking) ReadBlocks(pids []mem.PageID) ([][]uint64, error) {
	s := b.tr.begin(b.clk)
	data, err := b.inner.ReadBlocks(pids)
	b.tr.end(kBlockBatchRead, b.clk, s)
	return data, err
}

func (b *timedBacking) WriteBlocks(writes []mem.BlockWrite) error {
	s := b.tr.begin(b.clk)
	err := b.inner.WriteBlocks(writes)
	b.tr.end(kBlockBatchWrite, b.clk, s)
	return err
}

func (b *timedBacking) FreeBlock(pid mem.PageID) error {
	s := b.tr.begin(b.clk)
	err := b.inner.FreeBlock(pid)
	b.tr.end(kBlockFree, b.clk, s)
	return err
}

func (b *timedBacking) BlockIDs() []mem.PageID { return b.inner.BlockIDs() }

func (b *timedBacking) Sync() error {
	s := b.tr.begin(b.clk)
	err := b.inner.Sync()
	b.tr.end(kBlockSync, b.clk, s)
	return err
}

func (b *timedBacking) Checkpoint(manifest []byte) error {
	s := b.tr.begin(b.clk)
	err := b.inner.Checkpoint(manifest)
	b.tr.end(kBlockCheckpoint, b.clk, s)
	return err
}

func (b *timedBacking) Manifest() ([]byte, error) { return b.inner.Manifest() }

func (b *timedBacking) CheckpointBlock(pid mem.PageID) ([]uint64, error) {
	return b.inner.CheckpointBlock(pid)
}

func (b *timedBacking) RevertToCheckpoint() error { return b.inner.RevertToCheckpoint() }

func (b *timedBacking) Close() error { return b.inner.Close() }

// SetMetrics forwards the kernel's registry to the wrapped store when it
// publishes counters.
func (b *timedBacking) SetMetrics(reg *metrics.Registry) {
	if sm, ok := b.inner.(interface{ SetMetrics(*metrics.Registry) }); ok {
		sm.SetMetrics(reg)
	}
}
