package core

import (
	"strings"
	"testing"

	"repro/internal/acl"
	"repro/internal/fs"
	"repro/internal/machine"
	"repro/internal/mls"
	"repro/internal/sched"
)

// TestEveryS0GateConformance smoke-exercises every user-available gate of
// the baseline kernel with a valid call, verifying the full surface a
// certifier would have to audit actually functions.
func TestEveryS0GateConformance(t *testing.T) {
	k := newKernel(t, S0Baseline)
	mkdir(t, k, alice, "udd")
	installMath(t, k) // creates >lib and installs >lib>math (incr, square)
	p := userProc(t, k, alice, unc)
	if err := k.Services().Users.AddUser("Alice", "CSR", "alicepw1", mls.NewLabel(mls.Secret)); err != nil {
		t.Fatal(err)
	}

	called := map[string]bool{}
	call := func(name string, args ...uint64) []uint64 {
		t.Helper()
		out, err := p.CallGate(name, args...)
		if err != nil {
			t.Fatalf("gate %s: %v", name, err)
		}
		called[name] = true
		return out
	}
	str := func(s string) (uint64, uint64) {
		t.Helper()
		off, n, err := p.GateString(s)
		if err != nil {
			t.Fatal(err)
		}
		return off, n
	}

	// --- file system (path-keyed) ---
	dOff, dLen := str(">udd")
	nOff, nLen := str("doc")
	uid := call("hcs_$append_branch", dOff, dLen, nOff, nLen, 0)[0]
	_ = uid
	lnOff, lnLen := str("doclink")
	tOff, tLen := str(">udd>doc")
	call("hcs_$append_link", dOff, dLen, lnOff, lnLen, tOff, tLen)
	out := call("hcs_$list_dir", dOff, dLen)
	if out[2] != 2 {
		t.Errorf("list_dir count = %d, want 2", out[2])
	}
	pOff, pLen := str(">udd>doc")
	patOff, patLen := str("*.CSR.*")
	call("hcs_$add_acl_entry", pOff, pLen, patOff, patLen, uint64(acl.ModeRead|acl.ModeWrite))
	out = call("hcs_$list_acl", pOff, pLen)
	if out[2] < 2 {
		t.Errorf("list_acl entries = %d", out[2])
	}
	call("hcs_$delete_acl_entry", pOff, pLen, patOff, patLen)
	st := call("hcs_$status", pOff, pLen)
	if st[0] != 0 {
		t.Errorf("status kind = %d, want segment", st[0])
	}
	call("hcs_$set_max_length", pOff, pLen, 64)
	call("hcs_$set_bc", pOff, pLen, 999)
	if bc := call("hcs_$status", pOff, pLen)[1]; bc != 999 {
		t.Errorf("bit count = %d", bc)
	}
	if got := call("hcs_$get_uid", pOff, pLen)[0]; got != uid {
		t.Errorf("get_uid = %d, want %d", got, uid)
	}
	lkOff, lkLen := str(">udd>doclink")
	if got := call("hcs_$get_uid", lkOff, lkLen)[0]; got != uid {
		t.Errorf("link get_uid = %d", got)
	}

	// --- address space & names ---
	rOff, rLen := str("doc")
	seg := machine.SegNo(call("hcs_$initiate", pOff, pLen, rOff, rLen)[0])
	out = call("hcs_$initiate_count", pOff, pLen, 0, 0)
	if machine.SegNo(out[0]) != seg || out[1] != 999 {
		t.Errorf("initiate_count = %v", out)
	}
	if got := call("hcs_$fs_get_seg_ptr", rOff, rLen)[0]; machine.SegNo(got) != seg {
		t.Errorf("fs_get_seg_ptr = %d", got)
	}
	out = call("hcs_$fs_get_ref_name", uint64(seg))
	if name, err := p.ReadArgString(out[0], out[1]); err != nil || name != "doc" {
		t.Errorf("fs_get_ref_name = %q, %v", name, err)
	}
	out = call("hcs_$fs_get_mode", rOff, rLen)
	if machine.AccessMode(out[0])&machine.ModeRead == 0 {
		t.Errorf("fs_get_mode = %v", machine.AccessMode(out[0]))
	}
	out = call("hcs_$fs_get_path_name", uint64(seg))
	if path, _ := p.ReadArgString(out[0], out[1]); path != ">udd>doc" {
		t.Errorf("path = %q", path)
	}
	out = call("hcs_$high_low_seg_count")
	if out[0] != 1 || machine.SegNo(out[1]) != FirstUserSegNo {
		t.Errorf("high_low_seg_count = %v", out)
	}
	call("hcs_$set_wdir", dOff, dLen)
	out = call("hcs_$get_wdir")
	if wd, _ := p.ReadArgString(out[0], out[1]); wd != ">udd" {
		t.Errorf("wdir = %q", wd)
	}
	call("hcs_$terminate_noname", uint64(seg)) // names only
	call("hcs_$terminate_seg", uint64(seg))
	// Re-initiate by make_ptr through the search rules.
	udOff, udLen := str(">udd")
	call("hcs_$add_search_rule", udOff, udLen)
	seg2 := machine.SegNo(call("hcs_$make_ptr", rOff, rLen)[0])
	if seg2 < FirstUserSegNo {
		t.Errorf("make_ptr segno = %d", seg2)
	}
	call("hcs_$terminate_name", rOff, rLen)
	// Initiate again and terminate by path.
	call("hcs_$initiate", pOff, pLen, 0, 0)
	call("hcs_$terminate_file", pOff, pLen)

	// --- linker ---
	if n := call("hcs_$get_search_rules")[0]; n != 1 {
		t.Errorf("search rules = %d", n)
	}
	call("hcs_$reset_search_rules")
	libOff, libLen := str(">lib")
	call("hcs_$add_search_rule", libOff, libLen)
	mOff, mLen := str("math")
	eOff, eLen := str("square")
	out = call("hcs_$link_snap", mOff, mLen, eOff, eLen)
	mathSeg := out[0]
	out = call("hcs_$link_force", mOff, mLen, eOff, eLen)
	if out[0] != mathSeg {
		t.Errorf("link_force segno differs: %v", out)
	}
	if e := call("hcs_$get_entry_point", mathSeg, eOff, eLen)[0]; e != 1 {
		t.Errorf("get_entry_point = %d", e)
	}
	out = call("hcs_$get_defname", mathSeg, 1)
	if name, _ := p.ReadArgString(out[0], out[1]); name != "square" {
		t.Errorf("get_defname = %q", name)
	}

	// --- process & IPC ---
	chnSegPath, chnSegPathLen := str(">udd>chnseg")
	chOff, chLen := str("chnseg")
	call("hcs_$append_branch", dOff, dLen, chOff, chLen, 0)
	call("hcs_$set_max_length", chnSegPath, chnSegPathLen, 8)
	chnSeg := call("hcs_$initiate", chnSegPath, chnSegPathLen, 0, 0)[0]
	chn := call("hcs_$create_ev_chn", chnSeg)[0]
	call("hcs_$wakeup", chn, 77)
	if n := call("hcs_$read_events", chn)[0]; n != 1 {
		t.Errorf("read_events = %d", n)
	}
	call("hcs_$set_timer", 100, chn, 5)
	call("hcs_$get_usage")
	if id := call("hcs_$get_process_id")[0]; id == 0 {
		t.Errorf("process id = 0")
	}
	// Block under the scheduler (consumes the pending wakeup).
	var got uint64
	p.Run(func(pc *sched.ProcCtx) {
		out, err := p.CallGate("hcs_$block", chn)
		if err != nil {
			t.Errorf("block: %v", err)
			return
		}
		got = out[0]
	})
	k.Services().Scheduler.Run(0)
	if got != 77 {
		t.Errorf("block data = %d", got)
	}
	called["hcs_$block"] = true
	call("hcs_$delete_ev_chn", chn)

	// --- I/O (legacy drivers) ---
	tty := call("ios_$tty_attach")[0]
	if err := k.InjectInput(tty, 0xA); err != nil {
		t.Fatal(err)
	}
	if out := call("ios_$tty_read", tty); out[1] != 1 || out[0] != 0xA {
		t.Errorf("tty_read = %v", out)
	}
	call("ios_$tty_write", tty, 1)
	call("ios_$tty_order", tty, 2)
	call("ios_$tty_detach", tty)
	tape := call("ios_$tape_attach")[0]
	call("ios_$tape_read", tape)
	call("ios_$tape_write", tape, 3)
	crd := call("ios_$crd_attach")[0]
	call("ios_$crd_read", crd)
	cpn := call("ios_$cpn_attach")[0]
	call("ios_$cpn_write", cpn, 4)
	prt := call("ios_$prt_attach")[0]
	call("ios_$prt_write", prt, 5)

	// --- login family ---
	aOff, aLen := str("Alice")
	jOff, jLen := str("CSR")
	wOff, wLen := str("alicepw1")
	call("as_$login", aOff, aLen, jOff, jLen, wOff, wLen, uint64(mls.Unclassified))
	oOff, oLen := str("alicepw1")
	nwOff, nwLen := str("newerpw2")
	call("as_$change_password", oOff, oLen, nwOff, nwLen)
	call("as_$new_proc")
	call("as_$logout")

	// --- cleanup path: delete the link entry ---
	call("hcs_$delete_entry", dOff, dLen, lnOff, lnLen)
	if out := call("hcs_$list_dir", dOff, dLen); out[2] != 2 { // doc + chnseg remain
		t.Errorf("list after delete = %v", out)
	}

	// --- misc ---
	if out := call("hcs_$get_system_info"); Stage(out[0]) != S0Baseline {
		t.Errorf("system info stage = %d", out[0])
	}
	call("hcs_$get_authorization")
	call("hcs_$total_cpu_time")

	// Every user gate must have been exercised.
	var missed []string
	for _, name := range k.Services().UserGates.Names() {
		if !called[name] {
			missed = append(missed, name)
		}
	}
	if len(missed) > 0 {
		t.Errorf("gates never exercised: %s", strings.Join(missed, ", "))
	}
	checkDirGateStats(t, k, "S0: tree-name keys, 645 costs")
}

// TestEveryPrivilegedGateConformance exercises every phcs_ gate from a
// ring-2 caller.
func TestEveryPrivilegedGateConformance(t *testing.T) {
	k := newKernel(t, S0Baseline)
	if err := k.Services().Users.AddUser("Alice", "CSR", "alicepw1", mls.NewLabel(mls.Secret)); err != nil {
		t.Fatal(err)
	}
	sys, err := k.CreateProcess("sys", acl.Principal{Person: "Init", Project: "Sys", Tag: "z"},
		mls.NewLabel(mls.TopSecret), machine.SupervisorRing)
	if err != nil {
		t.Fatal(err)
	}
	mkdir(t, k, alice, "udd")

	called := map[string]bool{}
	call := func(name string, args ...uint64) []uint64 {
		t.Helper()
		out, err := sys.CallGate(name, args...)
		if err != nil {
			t.Fatalf("gate %s: %v", name, err)
		}
		called[name] = true
		return out
	}

	pOff, pLen, _ := sys.GateString("Alice")
	jOff, jLen, _ := sys.GateString("CSR")
	call("phcs_$create_process", pOff, pLen, jOff, jLen, uint64(mls.Unclassified))

	// Materialize a frame to peek at and wire.
	uid, err := k.Services().Hierarchy.Create(alice, unc, 1, "wired", fs.CreateOptions{
		Kind: fs.KindSegment, Label: unc, Length: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := k.writeSegmentWords(uid, []uint64{1}); err != nil {
		t.Fatal(err)
	}
	// Find the frame the write materialized; peek and wire that one.
	var frame uint64
	found := false
	for _, f := range k.Services().Store.Frames() {
		if !f.Free && f.PID.SegUID == uid {
			frame = uint64(f.ID)
			found = true
			break
		}
	}
	if !found {
		t.Fatal("no occupied frame for the test segment")
	}
	out := call("phcs_$ring0_peek", frame)
	if out[0] != 1 || out[1] != uid {
		t.Errorf("peek = %v, want occupied by %#x", out, uid)
	}
	call("phcs_$wire_frame", frame, 1)
	call("phcs_$wire_frame", frame, 0)
	call("phcs_$set_clock", uint64(k.Services().Clock.Now()))
	if out := call("phcs_$salvage", 0); out[0] < 2 || out[1] != 0 {
		t.Errorf("salvage = %v, want clean walk of >= 2 objects", out)
	}
	call("phcs_$reclassify", uid, uint64(mls.Secret))
	obj, err := k.Services().Hierarchy.Object(uid)
	if err != nil || obj.Label().Level != mls.Secret {
		t.Errorf("reclassify: %v, %v", obj, err)
	}
	call("phcs_$shutdown")

	var missed []string
	for _, name := range k.Services().PrivGates.Names() {
		if !called[name] {
			missed = append(missed, name)
		}
	}
	if len(missed) > 0 {
		t.Errorf("privileged gates never exercised: %s", strings.Join(missed, ", "))
	}
}

// TestEveryS2GateConformance exercises the segment-number-keyed interface.
func TestEveryS2GateConformance(t *testing.T) {
	k := newKernel(t, S2RefNamesRemoved)
	mkdir(t, k, alice, "udd")
	p := userProc(t, k, alice, unc)

	called := map[string]bool{}
	call := func(name string, args ...uint64) []uint64 {
		t.Helper()
		out, err := p.CallGate(name, args...)
		if err != nil {
			t.Fatalf("gate %s: %v", name, err)
		}
		called[name] = true
		return out
	}
	str := func(s string) (uint64, uint64) {
		t.Helper()
		off, n, err := p.GateString(s)
		if err != nil {
			t.Fatal(err)
		}
		return off, n
	}

	root := call("hcs_$root_dir")[0]
	uOff, uLen := str("udd")
	udd := call("hcs_$initiate_dir", root, uOff, uLen)[0]
	nOff, nLen := str("doc")
	uid := call("hcs_$append_branch", udd, nOff, nLen, 0)[0]
	lOff, lLen := str("doclink")
	tOff, tLen := str(">udd>doc")
	call("hcs_$append_link", udd, lOff, lLen, tOff, tLen)
	if out := call("hcs_$lookup_entry", udd, nOff, nLen); out[0] != uid {
		t.Errorf("lookup_entry = %v", out)
	}
	if out := call("hcs_$lookup_entry", udd, lOff, lLen); out[1] != 2 {
		t.Errorf("link lookup = %v", out)
	}
	if out := call("hcs_$list_dir", udd); out[2] != 2 {
		t.Errorf("list = %v", out)
	}
	patOff, patLen := str("*.*.*")
	call("hcs_$add_acl_entry", udd, nOff, nLen, patOff, patLen, uint64(acl.ModeRead))
	if out := call("hcs_$list_acl", udd, nOff, nLen); out[2] < 2 {
		t.Errorf("list_acl = %v", out)
	}
	call("hcs_$delete_acl_entry", udd, nOff, nLen, patOff, patLen)
	call("hcs_$set_max_length", udd, nOff, nLen, 32)
	call("hcs_$set_bc", udd, nOff, nLen, 11)
	if out := call("hcs_$status", udd, nOff, nLen); out[1] != 11 {
		t.Errorf("status = %v", out)
	}
	seg := call("hcs_$initiate_uid", uid)[0]
	call("hcs_$terminate_seg", seg)
	call("hcs_$delete_entry", udd, lOff, lLen)

	// IPC/process/misc gates shared with S0 get a light touch.
	cOff, cLen := str("chn")
	cuid := call("hcs_$append_branch", udd, cOff, cLen, 0)[0]
	call("hcs_$set_max_length", udd, cOff, cLen, 8)
	cseg := call("hcs_$initiate_uid", cuid)[0]
	chn := call("hcs_$create_ev_chn", cseg)[0]
	call("hcs_$wakeup", chn, 1)
	call("hcs_$read_events", chn)
	call("hcs_$set_timer", 10, chn, 2)
	call("hcs_$delete_ev_chn", chn)
	call("hcs_$get_usage")
	call("hcs_$get_process_id")
	call("hcs_$get_system_info")
	call("hcs_$get_authorization")
	call("hcs_$total_cpu_time")
	tty := call("ios_$tty_attach")[0]
	call("ios_$tty_read", tty)
	call("ios_$tty_write", tty, 0)
	call("ios_$tty_order", tty, 0)
	call("ios_$tty_detach", tty)
	tape := call("ios_$tape_attach")[0]
	call("ios_$tape_read", tape)
	call("ios_$tape_write", tape, 0)
	crd := call("ios_$crd_attach")[0]
	call("ios_$crd_read", crd)
	cpn := call("ios_$cpn_attach")[0]
	call("ios_$cpn_write", cpn, 0)
	prt := call("ios_$prt_attach")[0]
	call("ios_$prt_write", prt, 0)
	aOff, aLen := str("Alice")
	jOff, jLen := str("CSR")
	if err := k.Services().Users.AddUser("Alice", "CSR", "alicepw1", mls.NewLabel(mls.Secret)); err != nil {
		t.Fatal(err)
	}
	wOff, wLen := str("alicepw1")
	call("as_$login", aOff, aLen, jOff, jLen, wOff, wLen, uint64(mls.Unclassified))
	o2, l2 := str("alicepw1")
	n2, ln2 := str("newerpw2")
	call("as_$change_password", o2, l2, n2, ln2)
	call("as_$new_proc")
	call("as_$logout")

	var missed []string
	for _, name := range k.Services().UserGates.Names() {
		if !called[name] && name != "hcs_$block" { // block needs a scheduled process; covered elsewhere
			missed = append(missed, name)
		}
	}
	if len(missed) > 0 {
		t.Errorf("S2 gates never exercised: %s", strings.Join(missed, ", "))
	}
	checkDirGateStats(t, k, "S2: segment-number keys, 6180 costs")
}
