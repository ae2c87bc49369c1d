package core

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/acl"
	"repro/internal/fs"
	"repro/internal/ipc"
	"repro/internal/linker"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/mls"
)

// programInfo records the executable body and symbol table installed for a
// procedure segment UID.
type programInfo struct {
	proc *machine.Procedure
}

// InstallProgram creates a procedure segment in the hierarchy: a branch
// whose words hold the encoded symbol table and whose executable body is
// proc. The caller needs append permission on the directory, like any
// create.
func (k *Kernel) InstallProgram(who acl.Principal, subj mls.Label, dirUID uint64, name string,
	proc *machine.Procedure, symbols []linker.Symbol, opts fs.CreateOptions) (uint64, error) {
	words, err := linker.EncodeSymtab(symbols)
	if err != nil {
		return 0, fmt.Errorf("core: encoding symbol table for %q: %w", name, err)
	}
	opts.Kind = fs.KindSegment
	opts.Length = len(words)
	if opts.Brackets == (machine.Brackets{}) {
		opts.Brackets = machine.UserBrackets(machine.UserRing)
	}
	uid, err := k.hier.Create(who, subj, dirUID, name, opts)
	if err != nil {
		return 0, err
	}
	// Write the symbol table into the segment's pages (kernel-side store
	// writes: installation is a trusted path, like a compiler writing its
	// output object segment).
	if err := k.writeSegmentWords(uid, words); err != nil {
		return 0, fmt.Errorf("core: writing symbol table of %q: %w", name, err)
	}
	k.programs[uid] = &programInfo{proc: proc}
	return uid, nil
}

// writeSegmentWords stores words into segment uid starting at offset 0,
// paging frames in as needed.
func (k *Kernel) writeSegmentWords(uid uint64, words []uint64) error {
	pw := k.store.Config().PageWords
	for off, w := range words {
		pid := mem.PageID{SegUID: uid, Index: off / pw}
		loc, err := k.store.Locate(pid)
		if err != nil {
			return err
		}
		if loc.Level != mem.LevelCore {
			if _, _, err := k.store.PageIn(pid); err != nil {
				return err
			}
			loc, err = k.store.Locate(pid)
			if err != nil {
				return err
			}
		}
		if err := k.store.WriteWord(loc.Frame, off%pw, w); err != nil {
			return err
		}
	}
	return nil
}

// SmashSegmentWords overwrites the words of segment uid. It models a user
// rewriting an object segment they own (which needs no privilege at all);
// the audit suite uses it to malstructure symbol tables before handing them
// to the linker.
func (k *Kernel) SmashSegmentWords(uid uint64, words []uint64) error {
	return k.writeSegmentWords(uid, words)
}

// accessModeFor converts a discretionary fs mode into the machine access
// mode an SDW grants.
func accessModeFor(m acl.Mode) machine.AccessMode {
	var out machine.AccessMode
	if m.Has(acl.ModeRead) {
		out |= machine.ModeRead
	}
	if m.Has(acl.ModeWrite) {
		out |= machine.ModeWrite
	}
	if m.Has(acl.ModeExecute) {
		out |= machine.ModeExecute
	}
	return out
}

// maxGrantableMode computes the strongest mode the process may hold on the
// object: discretionary grant intersected with the mandatory rules.
func (k *Kernel) maxGrantableMode(p *Proc, obj *fs.Object) acl.Mode {
	granted := obj.ACLModeFor(p.Principal)
	// Mandatory filtering: reading up is forbidden, writing down is
	// forbidden.
	if mls.CheckRead(p.Label, obj.Label()) != nil {
		granted &^= acl.ModeRead | acl.ModeExecute
	}
	if mls.CheckWrite(p.Label, obj.Label()) != nil {
		granted &^= acl.ModeWrite
	}
	return granted
}

// initiateUID makes segment uid known to process p with the strongest
// permissible access, returning the segment number.
func (k *Kernel) initiateUID(p *Proc, uid uint64) (machine.SegNo, error) {
	obj, err := k.hier.Object(uid)
	if err != nil {
		return 0, err
	}
	if obj.Kind != fs.KindSegment {
		return 0, fmt.Errorf("core: %w: %#x", fs.ErrNotSegment, uid)
	}
	granted := k.maxGrantableMode(p, obj)
	if granted&(acl.ModeRead|acl.ModeWrite|acl.ModeExecute) == 0 {
		return 0, &acl.DeniedError{Who: p.Principal, Want: acl.ModeRead, Got: granted}
	}
	if seg, ok := p.KST.SegNoForUID(uid); ok {
		return seg, nil // already known: its descriptor stands, as KST.Initiate keeps it
	}
	backing, err := mem.NewPagedBacking(k.store, uid)
	if err != nil {
		return 0, err
	}
	sdw := machine.SDW{
		Backing:  backing,
		Mode:     accessModeFor(granted),
		Brackets: obj.Brackets,
		Gates:    obj.Gates,
	}
	if pi, ok := k.programs[uid]; ok {
		sdw.Proc = pi.proc
	}
	seg, _, err := p.KST.Initiate(uid, sdw)
	return seg, err
}

// initiateDir makes directory uid known to p for naming purposes only: the
// descriptor carries no access modes, so the hierarchy stays readable only
// through kernel gates, but the process now has a compact name (a segment
// number) for the directory. This is the Bratt interface.
func (k *Kernel) initiateDir(p *Proc, uid uint64) (machine.SegNo, error) {
	obj, err := k.hier.Object(uid)
	if err != nil {
		return 0, err
	}
	if obj.Kind != fs.KindDirectory {
		return 0, fmt.Errorf("core: %w: %#x", fs.ErrNotDirectory, uid)
	}
	// Require status permission to make the directory known at all.
	if err := obj.CheckACL(p.Principal, acl.ModeStatus); err != nil {
		return 0, err
	}
	if seg, ok := p.KST.SegNoForUID(uid); ok {
		return seg, nil
	}
	backing, err := mem.NewPagedBacking(k.store, uid)
	if err != nil {
		return 0, err
	}
	sdw := machine.SDW{
		Backing:  backing,
		Mode:     0, // no direct access: gates only
		Brackets: machine.KernelBrackets(),
	}
	seg, _, err := p.KST.Initiate(uid, sdw)
	return seg, err
}

// resolvePathKernel is the S0/S1 kernel service: follow a tree name inside
// ring 0. From S2 on this algorithm lives in the user ring and the kernel
// no longer provides it.
func (k *Kernel) resolvePathKernel(p *Proc, path string) (uint64, error) {
	if k.cfg.Stage >= S2RefNamesRemoved {
		return 0, errors.New("core: kernel path resolution removed at this stage")
	}
	return k.hier.ResolvePath(p.Principal, p.Label, path)
}

// kernelLinkEnv is the linker environment of the baseline kernel: lookups
// and initiations happen with full kernel privilege.
type kernelLinkEnv struct {
	k *Kernel
	p *Proc
}

var _ linker.Environment = (*kernelLinkEnv)(nil)

// LookupSegment implements linker.Environment via the kernel's resident
// search rules.
func (e *kernelLinkEnv) LookupSegment(name string) (uint64, error) {
	for _, dirUID := range e.p.searchDirs {
		entry, err := e.k.hier.Lookup(e.p.Principal, e.p.Label, dirUID, name)
		if err != nil {
			continue
		}
		if entry.IsLink() {
			uid, err := e.k.hier.ResolvePath(e.p.Principal, e.p.Label, entry.LinkTo)
			if err != nil {
				continue
			}
			return uid, nil
		}
		return entry.UID, nil
	}
	return 0, linker.ErrSegmentNotFound
}

// Initiate implements linker.Environment.
func (e *kernelLinkEnv) Initiate(uid uint64) (machine.SegNo, error) {
	return e.k.initiateUID(e.p, uid)
}

// kernelChannel is one event channel in the kernel's table. Per the new
// IPC design, the channel is identified with a segment and its use is
// governed by access to that segment.
type kernelChannel struct {
	id    uint64
	uid   uint64 // segment whose access governs the channel
	ch    *ipc.Channel
	owner *Proc
}

// createChannel makes an event channel governed by segment uid.
func (k *Kernel) createChannel(p *Proc, uid uint64) (uint64, error) {
	obj, err := k.hier.Object(uid)
	if err != nil {
		return 0, err
	}
	if obj.Kind != fs.KindSegment {
		return 0, fmt.Errorf("core: event channel must be governed by a segment")
	}
	// Creating the channel requires write access to the governing segment.
	if _, err := k.hier.CheckSegmentAccess(p.Principal, p.Label, uid, acl.ModeWrite); err != nil {
		return 0, err
	}
	id := k.nextChn
	k.nextChn++
	kc := &kernelChannel{id: id, uid: uid, owner: p}
	// The gate implementations perform the per-use access checks (write on
	// the governing segment to signal, read to await) before touching the
	// channel, because only they know the calling process.
	kc.ch = ipc.NewChannel(fmt.Sprintf("evchn-%d", id), k.sch)
	k.channels[id] = kc
	return id, nil
}

// channelByID fetches a channel and verifies the caller holds want on
// its governing segment: write access to signal it, read access to await
// it.
func (k *Kernel) channelByID(p *Proc, id uint64, want acl.Mode) (*kernelChannel, error) {
	kc, ok := k.channels[id]
	if !ok {
		return nil, fmt.Errorf("core: no event channel %d", id)
	}
	if _, err := k.hier.CheckSegmentAccess(p.Principal, p.Label, kc.uid, want); err != nil {
		return nil, fmt.Errorf("core: event channel %d: %w", id, err)
	}
	return kc, nil
}

// deleteChannel removes a channel; only a process with write access to the
// governing segment may delete it.
func (k *Kernel) deleteChannel(p *Proc, id uint64) error {
	kc, err := k.channelByID(p, id, acl.ModeWrite)
	if err != nil {
		return err
	}
	kc.ch.Close()
	delete(k.channels, id)
	return nil
}

// deleteChannelsOf closes and removes every channel p owns, in id order,
// so that the waiters they release wake in a repeatable order.
func (k *Kernel) deleteChannelsOf(p *Proc) {
	var ids []uint64
	for id, kc := range k.channels {
		if kc.owner == p {
			ids = append(ids, id)
		}
	}
	slices.Sort(ids)
	for _, id := range ids {
		k.channels[id].ch.Close()
		delete(k.channels, id)
	}
}
