package core

import (
	"fmt"
	"slices"

	"repro/internal/iosys"
	"repro/internal/mem"
)

// bufferUIDBase reserves layer-1 UIDs for kernel I/O buffers, well above
// anything the hierarchy will allocate in a simulation run.
const bufferUIDBase uint64 = 1 << 40

// device is one attached I/O stream.
type device struct {
	id     uint64
	class  iosys.DeviceClass
	buf    iosys.Buffer
	owner  *Proc
	seqOut uint64
	// uid is the buffer's backing segment (S5+ infinite buffers only;
	// zero for legacy circular buffers, which own no storage).
	uid uint64
}

// deviceTable is the kernel's attachment table. Its shape follows the
// stage: per-device-class drivers with circular buffers before the
// consolidation, a single network attachment with the infinite VM-backed
// buffer after it.
type deviceTable struct {
	stage   Stage
	store   *mem.Store
	devices map[uint64]*device
	nextID  uint64
	nextUID uint64
	// Drivers is the kernel driver inventory at this stage.
	Drivers []iosys.Driver
}

func newDeviceTable(stage Stage, store *mem.Store) *deviceTable {
	dt := &deviceTable{
		stage:   stage,
		store:   store,
		devices: make(map[uint64]*device),
		nextID:  1,
		nextUID: bufferUIDBase,
	}
	if stage >= S5IOConsolidated {
		dt.Drivers = []iosys.Driver{iosys.NetworkDriver()}
	} else {
		dt.Drivers = iosys.LegacyDrivers()
	}
	return dt
}

// classAvailable reports whether this stage's kernel has a driver for the
// class.
func (dt *deviceTable) classAvailable(class iosys.DeviceClass) bool {
	for _, d := range dt.Drivers {
		if d.Class == class {
			return true
		}
	}
	return false
}

// legacyBufferSlots is the fixed circular-buffer capacity of the old
// drivers — the hard limit whose overflow loses messages.
const legacyBufferSlots = 16

// attach creates an attachment for p on the given device class.
func (dt *deviceTable) attach(p *Proc, class iosys.DeviceClass) (uint64, error) {
	if !dt.classAvailable(class) {
		return 0, fmt.Errorf("core: no %s driver in this kernel configuration", class)
	}
	var buf iosys.Buffer
	var err error
	var uid uint64
	if dt.stage >= S5IOConsolidated {
		uid = dt.nextUID
		dt.nextUID++
		buf, err = iosys.NewInfiniteBuffer(dt.store, uid)
		if err != nil {
			return 0, fmt.Errorf("core: creating network buffer: %w", err)
		}
	} else {
		buf, err = iosys.NewCircularBuffer(legacyBufferSlots)
		if err != nil {
			return 0, err
		}
	}
	id := dt.nextID
	dt.nextID++
	dt.devices[id] = &device{id: id, class: class, buf: buf, owner: p, uid: uid}
	return id, nil
}

// lookup finds an attachment owned by p.
func (dt *deviceTable) lookup(p *Proc, id uint64) (*device, error) {
	d, ok := dt.devices[id]
	if !ok {
		return nil, fmt.Errorf("core: no attachment %d", id)
	}
	if d.owner != p {
		return nil, fmt.Errorf("core: attachment %d belongs to %s", id, d.owner.Name)
	}
	return d, nil
}

// detach removes an attachment and, for the consolidated path, returns the
// buffer segment's storage to the free pools: the infinite buffer is an
// ordinary segment, so tearing a connection down is an ordinary segment
// delete, not special-purpose driver code.
func (dt *deviceTable) detach(p *Proc, id uint64) error {
	d, err := dt.lookup(p, id)
	if err != nil {
		return err
	}
	delete(dt.devices, id)
	if d.uid != 0 {
		if err := dt.store.DeleteSegment(d.uid); err != nil {
			return fmt.Errorf("core: releasing buffer segment: %w", err)
		}
	}
	return nil
}

// detachAll detaches every attachment p owns, in id order, so that the
// buffer segments go back to the free pools in a repeatable order.
func (dt *deviceTable) detachAll(p *Proc) error {
	var ids []uint64
	for id, d := range dt.devices {
		if d.owner == p {
			ids = append(ids, id)
		}
	}
	slices.Sort(ids)
	for _, id := range ids {
		if err := dt.detach(p, id); err != nil {
			return err
		}
	}
	return nil
}

// InjectInput simulates device input arriving on attachment id (host-side
// test/workload hook — in the real system this is the device channel).
func (k *Kernel) InjectInput(id uint64, data uint64) error {
	d, ok := k.devices.devices[id]
	if !ok {
		return fmt.Errorf("core: no attachment %d", id)
	}
	d.seqOut++
	return d.buf.Put(iosys.Message{Seq: d.seqOut, Data: data})
}

// DeviceLost reports how many input messages attachment id has destroyed
// unread (always zero from S5 on).
func (k *Kernel) DeviceLost(id uint64) (int64, error) {
	d, ok := k.devices.devices[id]
	if !ok {
		return 0, fmt.Errorf("core: no attachment %d", id)
	}
	return d.buf.Lost(), nil
}

// DeviceQueue reports how many input messages attachment id has buffered
// and not yet delivered.
func (k *Kernel) DeviceQueue(id uint64) (int, error) {
	d, ok := k.devices.devices[id]
	if !ok {
		return 0, fmt.Errorf("core: no attachment %d", id)
	}
	return d.buf.Len(), nil
}
