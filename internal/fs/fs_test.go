package fs

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/acl"
	"repro/internal/mem"
	"repro/internal/mls"
)

var (
	alice = Principal{Person: "Alice", Project: "CSR", Tag: "a"}
	bob   = Principal{Person: "Bob", Project: "SDC", Tag: "a"}
	unc   = mls.NewLabel(mls.Unclassified)
)

func newHier(t *testing.T) *Hierarchy {
	t.Helper()
	cfg := mem.DefaultConfig()
	cfg.CoreFrames = 256
	store, err := mem.NewStore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h, err := New(store, unc, nil)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func mustCreate(t *testing.T, h *Hierarchy, who Principal, dir uint64, name string, opts CreateOptions) uint64 {
	t.Helper()
	if opts.Label.Level == 0 && len(opts.Label.Compartments()) == 0 {
		opts.Label = unc
	}
	uid, err := h.Create(who, unc, dir, name, opts)
	if err != nil {
		t.Fatalf("Create %q: %v", name, err)
	}
	return uid
}

func TestCreateLookupDelete(t *testing.T) {
	h := newHier(t)
	dir := mustCreate(t, h, alice, RootUID, "udd", CreateOptions{Kind: KindDirectory})
	seg := mustCreate(t, h, alice, dir, "notes", CreateOptions{Kind: KindSegment, Length: 100})

	e, err := h.Lookup(alice, unc, dir, "notes")
	if err != nil {
		t.Fatalf("Lookup: %v", err)
	}
	if e.UID != seg || e.IsLink() {
		t.Errorf("entry = %+v", e)
	}
	if _, err := h.Lookup(alice, unc, dir, "ghost"); !errors.Is(err, ErrNotFound) {
		t.Errorf("missing lookup = %v, want ErrNotFound", err)
	}

	if err := h.Delete(alice, unc, dir, "notes"); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if _, err := h.Object(seg); !errors.Is(err, ErrNoSuchUID) {
		t.Errorf("deleted object lookup = %v", err)
	}
	// Storage released too.
	if _, ok := h.Store().Segment(seg); ok {
		t.Error("layer-1 storage not released")
	}
}

func TestDuplicateNameRejected(t *testing.T) {
	h := newHier(t)
	mustCreate(t, h, alice, RootUID, "x", CreateOptions{Kind: KindSegment})
	if _, err := h.Create(alice, unc, RootUID, "x", CreateOptions{Kind: KindSegment, Label: unc}); !errors.Is(err, ErrExists) {
		t.Errorf("duplicate create = %v, want ErrExists", err)
	}
}

func TestBadNamesRejected(t *testing.T) {
	h := newHier(t)
	for _, bad := range []string{"", ".", "..", "a>b", "a<b"} {
		if _, err := h.Create(alice, unc, RootUID, bad, CreateOptions{Kind: KindSegment, Label: unc}); !errors.Is(err, ErrBadPath) {
			t.Errorf("Create(%q) = %v, want ErrBadPath", bad, err)
		}
	}
}

func TestNonEmptyDirectoryNotDeletable(t *testing.T) {
	h := newHier(t)
	dir := mustCreate(t, h, alice, RootUID, "d", CreateOptions{Kind: KindDirectory})
	mustCreate(t, h, alice, dir, "child", CreateOptions{Kind: KindSegment})
	if err := h.Delete(alice, unc, RootUID, "d"); !errors.Is(err, ErrNotEmpty) {
		t.Errorf("delete non-empty = %v, want ErrNotEmpty", err)
	}
	if err := h.Delete(alice, unc, dir, "child"); err != nil {
		t.Fatal(err)
	}
	if err := h.Delete(alice, unc, RootUID, "d"); err != nil {
		t.Errorf("delete emptied dir: %v", err)
	}
}

func TestListSorted(t *testing.T) {
	h := newHier(t)
	for _, n := range []string{"zebra", "alpha", "mike"} {
		mustCreate(t, h, alice, RootUID, n, CreateOptions{Kind: KindSegment})
	}
	// List appends after what the buffer already holds.
	names, err := h.List(alice, unc, RootUID, []string{"kept"})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(names, ",") != "kept,alpha,mike,zebra" {
		t.Errorf("list = %v", names)
	}
}

func TestDefaultACLGrantsAuthorOnly(t *testing.T) {
	h := newHier(t)
	seg := mustCreate(t, h, alice, RootUID, "private", CreateOptions{Kind: KindSegment})
	if _, err := h.CheckSegmentAccess(alice, unc, seg, acl.ModeRead|acl.ModeWrite); err != nil {
		t.Errorf("author access: %v", err)
	}
	var de *acl.DeniedError
	if _, err := h.CheckSegmentAccess(bob, unc, seg, acl.ModeRead); !errors.As(err, &de) {
		t.Errorf("stranger access = %v, want ACL denial", err)
	}
}

func TestACLSharingAndRevocation(t *testing.T) {
	h := newHier(t)
	seg := mustCreate(t, h, alice, RootUID, "shared", CreateOptions{Kind: KindSegment})
	pat := acl.Pattern{Person: "Bob", Project: "SDC", Tag: acl.Wildcard}
	if err := h.SetACL(alice, unc, seg, pat, acl.ModeRead); err != nil {
		t.Fatalf("SetACL: %v", err)
	}
	if _, err := h.CheckSegmentAccess(bob, unc, seg, acl.ModeRead); err != nil {
		t.Errorf("shared read: %v", err)
	}
	if _, err := h.CheckSegmentAccess(bob, unc, seg, acl.ModeWrite); err == nil {
		t.Error("bob should not have write")
	}
	if err := h.RemoveACL(alice, unc, seg, pat); err != nil {
		t.Fatalf("RemoveACL: %v", err)
	}
	if _, err := h.CheckSegmentAccess(bob, unc, seg, acl.ModeRead); err == nil {
		t.Error("revoked read should fail")
	}
	if err := h.RemoveACL(alice, unc, seg, pat); !errors.Is(err, ErrNotFound) {
		t.Errorf("double revoke = %v", err)
	}
}

func TestACLChangeRequiresModifyOnParent(t *testing.T) {
	h := newHier(t)
	// Alice's directory under the (world-writable) root.
	dir := mustCreate(t, h, alice, RootUID, "alice", CreateOptions{Kind: KindDirectory})
	seg := mustCreate(t, h, alice, dir, "doc", CreateOptions{Kind: KindSegment})
	// Bob cannot give himself access: no modify on Alice's directory.
	pat := acl.Pattern{Person: "Bob", Project: acl.Wildcard, Tag: acl.Wildcard}
	if err := h.SetACL(bob, unc, seg, pat, acl.ModeRead); err == nil {
		t.Error("bob setting ACL in alice's directory should fail")
	}
}

func TestMandatoryChecksOnSegments(t *testing.T) {
	h := newHier(t)
	secret := mls.NewLabel(mls.Secret)
	seg := mustCreate(t, h, alice, RootUID, "s", CreateOptions{Kind: KindSegment, Label: secret})
	// Grant everyone discretionary access so only MLS governs.
	all := acl.Pattern{Person: acl.Wildcard, Project: acl.Wildcard, Tag: acl.Wildcard}
	if err := h.SetACL(alice, unc, seg, all, acl.ModeRead|acl.ModeWrite); err != nil {
		t.Fatal(err)
	}
	// Unclassified subject cannot read up...
	var v *mls.Violation
	if _, err := h.CheckSegmentAccess(bob, unc, seg, acl.ModeRead); !errors.As(err, &v) || v.Kind != mls.ReadUp {
		t.Errorf("read up = %v", err)
	}
	// ...but can write up (the *-property permits blind append upward).
	if _, err := h.CheckSegmentAccess(bob, unc, seg, acl.ModeWrite); err != nil {
		t.Errorf("write up: %v", err)
	}
	// A secret subject can read but not write down to unclassified objects.
	useg := mustCreate(t, h, alice, RootUID, "u", CreateOptions{Kind: KindSegment})
	if err := h.SetACL(alice, unc, useg, all, acl.ModeRead|acl.ModeWrite); err != nil {
		t.Fatal(err)
	}
	if _, err := h.CheckSegmentAccess(bob, secret, useg, acl.ModeRead); err != nil {
		t.Errorf("read down: %v", err)
	}
	if _, err := h.CheckSegmentAccess(bob, secret, useg, acl.ModeWrite); !errors.As(err, &v) || v.Kind != mls.WriteDown {
		t.Errorf("write down = %v", err)
	}
}

func TestLabelCompatibilityDownTree(t *testing.T) {
	h := newHier(t)
	secretDir := mustCreate(t, h, alice, RootUID, "vault", CreateOptions{
		Kind: KindDirectory, Label: mls.NewLabel(mls.Secret),
	})
	// A child labelled below its directory is rejected.
	if _, err := h.Create(alice, mls.NewLabel(mls.Secret), secretDir, "low", CreateOptions{Kind: KindSegment, Label: unc}); !errors.Is(err, ErrLabelTooLow) {
		t.Errorf("low child in secret dir = %v, want ErrLabelTooLow", err)
	}
	// Equal or higher is fine.
	if _, err := h.Create(alice, mls.NewLabel(mls.Secret), secretDir, "ok", CreateOptions{Kind: KindSegment, Label: mls.NewLabel(mls.TopSecret)}); err != nil {
		t.Errorf("high child: %v", err)
	}
}

func TestResolvePath(t *testing.T) {
	h := newHier(t)
	udd := mustCreate(t, h, alice, RootUID, "udd", CreateOptions{Kind: KindDirectory})
	csr := mustCreate(t, h, alice, udd, "CSR", CreateOptions{Kind: KindDirectory})
	seg := mustCreate(t, h, alice, csr, "thesis", CreateOptions{Kind: KindSegment})

	uid, err := h.ResolvePath(alice, unc, ">udd>CSR>thesis")
	if err != nil {
		t.Fatalf("ResolvePath: %v", err)
	}
	if uid != seg {
		t.Errorf("resolved %#x, want %#x", uid, seg)
	}
	if uid, err := h.ResolvePath(alice, unc, ">"); err != nil || uid != RootUID {
		t.Errorf("root resolve = %#x, %v", uid, err)
	}
	if _, err := h.ResolvePath(alice, unc, "udd>CSR"); !errors.Is(err, ErrBadPath) {
		t.Errorf("relative path = %v, want ErrBadPath", err)
	}
	if _, err := h.ResolvePath(alice, unc, ">udd>nope"); !errors.Is(err, ErrNotFound) {
		t.Errorf("missing component = %v", err)
	}
	if _, err := h.ResolvePath(alice, unc, ">udd>CSR>thesis>deeper"); err == nil {
		t.Error("descending through a segment should fail")
	}

	path, err := h.PathOf(seg)
	if err != nil || path != ">udd>CSR>thesis" {
		t.Errorf("PathOf = %q, %v", path, err)
	}
	if p, err := h.PathOf(RootUID); err != nil || p != ">" {
		t.Errorf("PathOf(root) = %q, %v", p, err)
	}
}

func TestLinksChasedDuringResolution(t *testing.T) {
	h := newHier(t)
	udd := mustCreate(t, h, alice, RootUID, "udd", CreateOptions{Kind: KindDirectory})
	seg := mustCreate(t, h, alice, udd, "real", CreateOptions{Kind: KindSegment})
	if err := h.AddLink(alice, unc, RootUID, "shortcut", ">udd>real"); err != nil {
		t.Fatalf("AddLink: %v", err)
	}
	uid, err := h.ResolvePath(alice, unc, ">shortcut")
	if err != nil || uid != seg {
		t.Errorf("link resolve = %#x, %v; want %#x", uid, err, seg)
	}
	// Link to a directory used as an interior component.
	if err := h.AddLink(alice, unc, RootUID, "u", ">udd"); err != nil {
		t.Fatal(err)
	}
	uid, err = h.ResolvePath(alice, unc, ">u>real")
	if err != nil || uid != seg {
		t.Errorf("interior link resolve = %#x, %v", uid, err)
	}
}

func TestLinkLoopDetected(t *testing.T) {
	h := newHier(t)
	if err := h.AddLink(alice, unc, RootUID, "a", ">b"); err != nil {
		t.Fatal(err)
	}
	if err := h.AddLink(alice, unc, RootUID, "b", ">a"); err != nil {
		t.Fatal(err)
	}
	if _, err := h.ResolvePath(alice, unc, ">a"); !errors.Is(err, ErrLinkLoop) {
		t.Errorf("loop = %v, want ErrLinkLoop", err)
	}
}

func TestDirectoryStatusRequiredForLookup(t *testing.T) {
	h := newHier(t)
	dir := mustCreate(t, h, alice, RootUID, "locked", CreateOptions{
		Kind: KindDirectory,
		ACL: acl.New(acl.Entry{
			Who:  acl.Pattern{Person: "Alice", Project: acl.Wildcard, Tag: acl.Wildcard},
			Mode: acl.ModeStatus | acl.ModeModify | acl.ModeAppend,
		}),
	})
	mustCreate(t, h, alice, dir, "doc", CreateOptions{Kind: KindSegment})
	if _, err := h.Lookup(bob, unc, dir, "doc"); err == nil {
		t.Error("lookup without status permission should fail")
	}
	if _, err := h.ResolvePath(bob, unc, ">locked>doc"); err == nil {
		t.Error("resolution through unreadable directory should fail")
	}
	if _, err := h.List(bob, unc, dir, nil); err == nil {
		t.Error("list without status permission should fail")
	}
}

func TestAppendRequiredForCreate(t *testing.T) {
	h := newHier(t)
	dir := mustCreate(t, h, alice, RootUID, "alice", CreateOptions{
		Kind: KindDirectory,
		ACL: acl.New(acl.Entry{
			Who:  acl.Pattern{Person: "Alice", Project: acl.Wildcard, Tag: acl.Wildcard},
			Mode: acl.ModeStatus | acl.ModeModify | acl.ModeAppend,
		}),
	})
	if _, err := h.Create(bob, unc, dir, "intruder", CreateOptions{Kind: KindSegment, Label: unc}); err == nil {
		t.Error("create without append permission should fail")
	}
	if err := h.AddLink(bob, unc, dir, "l", ">x"); err == nil {
		t.Error("link without append permission should fail")
	}
}

func TestSetLength(t *testing.T) {
	h := newHier(t)
	seg := mustCreate(t, h, alice, RootUID, "grow", CreateOptions{Kind: KindSegment, Length: 10})
	if err := h.SetLength(alice, unc, seg, 200); err != nil {
		t.Fatalf("SetLength: %v", err)
	}
	sp, ok := h.Store().Segment(seg)
	if !ok || sp.Length() != 200 {
		t.Errorf("length = %v", sp)
	}
	if err := h.SetLength(bob, unc, seg, 5); err == nil {
		t.Error("SetLength without write access should fail")
	}
}

func TestRootProtection(t *testing.T) {
	h := newHier(t)
	if _, err := h.Object(RootUID); err != nil {
		t.Fatal(err)
	}
	// The root cannot be reached for deletion by name (it has no parent
	// entry), and kind checks reject using a segment as a directory.
	seg := mustCreate(t, h, alice, RootUID, "s", CreateOptions{Kind: KindSegment})
	if _, err := h.Lookup(alice, unc, seg, "x"); !errors.Is(err, ErrNotDirectory) {
		t.Errorf("lookup in segment = %v", err)
	}
	if _, err := h.Create(alice, unc, seg, "x", CreateOptions{Kind: KindSegment, Label: unc}); !errors.Is(err, ErrNotDirectory) {
		t.Errorf("create in segment = %v", err)
	}
}

func TestSplitJoinPath(t *testing.T) {
	parts, err := SplitPath(">a>b>c")
	if err != nil || len(parts) != 3 {
		t.Fatalf("SplitPath = %v, %v", parts, err)
	}
	if JoinPath(parts...) != ">a>b>c" {
		t.Errorf("JoinPath = %q", JoinPath(parts...))
	}
	if JoinPath() != ">" {
		t.Errorf("JoinPath() = %q", JoinPath())
	}
	if _, err := SplitPath(">a>>b"); err == nil {
		t.Error("empty component should fail")
	}
}

func TestOpStatsCount(t *testing.T) {
	h := newHier(t)
	mustCreate(t, h, alice, RootUID, "a", CreateOptions{Kind: KindSegment})
	if _, err := h.ResolvePath(alice, unc, ">a"); err != nil {
		t.Fatal(err)
	}
	ops := h.OpStats()
	if ops.Creates != 1 || ops.Resolves != 1 || ops.Lookups == 0 {
		t.Errorf("ops = %+v", ops)
	}
}
