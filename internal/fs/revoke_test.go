package fs

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/acl"
	"repro/internal/mls"
)

// The revocation tests mirror the SDW associative-memory suite in
// internal/machine: resolve and check a path until it is in steady use,
// mutate the authority the walk depends on, and prove the stale walk or
// access is never honored — then the inverse, proving unrelated mutations
// leave a granted walk working.

func bobPat() acl.Pattern {
	return acl.Pattern{Person: "Bob", Project: "SDC", Tag: acl.Wildcard}
}

func anyPat() acl.Pattern {
	return acl.Pattern{Person: acl.Wildcard, Project: acl.Wildcard, Tag: acl.Wildcard}
}

// grantStatus opens a directory for lookup by everyone (the default dir
// ACL grants only the author).
func grantStatus(t *testing.T, h *Hierarchy, dir uint64) {
	t.Helper()
	if err := h.SetACL(alice, unc, dir, anyPat(), acl.ModeStatus); err != nil {
		t.Fatal(err)
	}
}

// warmSeg resolves path as bob and checks the segment twice; both must
// succeed.
func warmSeg(t *testing.T, h *Hierarchy, path string, seg uint64) {
	t.Helper()
	for i := 0; i < 2; i++ {
		if uid, err := h.ResolvePath(bob, unc, path); err != nil || uid != seg {
			t.Fatalf("warm resolve %q: %#x, %v", path, uid, err)
		}
		if _, err := h.CheckSegmentAccess(bob, unc, seg, acl.ModeRead); err != nil {
			t.Fatalf("warm check: %v", err)
		}
	}
}

// TestRevocationDeniedOnNextCheck revokes a warm reader's access three ways
// and requires the very next segment check to deny.
func TestRevocationDeniedOnNextCheck(t *testing.T) {
	cases := []struct {
		name   string
		revoke func(t *testing.T, h *Hierarchy, seg uint64)
	}{
		{"remove-acl", func(t *testing.T, h *Hierarchy, seg uint64) {
			if err := h.RemoveACL(alice, unc, seg, bobPat()); err != nil {
				t.Fatal(err)
			}
		}},
		{"set-acl-null", func(t *testing.T, h *Hierarchy, seg uint64) {
			// An explicit null entry is the Multics way to deny one
			// principal while a broader entry still grants.
			if err := h.SetACL(alice, unc, seg, bobPat(), 0); err != nil {
				t.Fatal(err)
			}
		}},
		{"reclassify", func(t *testing.T, h *Hierarchy, seg uint64) {
			// Raising the label above bob's clearance revokes via the
			// mandatory path, not the discretionary one.
			if err := h.Reclassify(seg, mls.NewLabel(mls.TopSecret)); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := newHier(t)
			dir := mustCreate(t, h, alice, RootUID, "udd", CreateOptions{Kind: KindDirectory})
			grantStatus(t, h, dir)
			seg := mustCreate(t, h, alice, dir, "doc", CreateOptions{Kind: KindSegment})
			if err := h.SetACL(alice, unc, seg, bobPat(), acl.ModeRead); err != nil {
				t.Fatal(err)
			}
			warmSeg(t, h, ">udd>doc", seg)
			tc.revoke(t, h, seg)
			if _, err := h.CheckSegmentAccess(bob, unc, seg, acl.ModeRead); err == nil {
				t.Fatal("revoked access honored")
			}
		})
	}
}

func TestRevokedDirectoryNeverServedFromPathCache(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(t *testing.T, h *Hierarchy, uids map[string]uint64)
		// path that must now fail (or resolve elsewhere) for bob
		wantErr bool
	}{
		{"revoke-interior-dir-status", func(t *testing.T, h *Hierarchy, uids map[string]uint64) {
			// Drop the wildcard grant on the interior directory: bob may
			// no longer even look up names inside it.
			if err := h.SetACL(alice, unc, uids["udd"], anyPat(), 0); err != nil {
				t.Fatal(err)
			}
		}, true},
		{"delete-leaf", func(t *testing.T, h *Hierarchy, uids map[string]uint64) {
			if err := h.Delete(alice, unc, uids["udd"], "doc"); err != nil {
				t.Fatal(err)
			}
		}, true},
		{"delete-interior-tree", func(t *testing.T, h *Hierarchy, uids map[string]uint64) {
			if err := h.Delete(alice, unc, uids["udd"], "doc"); err != nil {
				t.Fatal(err)
			}
			if err := h.Delete(alice, unc, RootUID, "udd"); err != nil {
				t.Fatal(err)
			}
		}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := newHier(t)
			uids := map[string]uint64{}
			uids["udd"] = mustCreate(t, h, alice, RootUID, "udd", CreateOptions{Kind: KindDirectory})
			grantStatus(t, h, uids["udd"])
			uids["doc"] = mustCreate(t, h, alice, uids["udd"], "doc", CreateOptions{Kind: KindSegment})
			if err := h.SetACL(alice, unc, uids["doc"], bobPat(), acl.ModeRead); err != nil {
				t.Fatal(err)
			}
			warmSeg(t, h, ">udd>doc", uids["doc"])
			tc.mutate(t, h, uids)
			uid, err := h.ResolvePath(bob, unc, ">udd>doc")
			if tc.wantErr && err == nil {
				t.Fatalf("stale path served: resolved to %#x", uid)
			}
		})
	}
}

func TestUnrelatedMutationKeepsEntriesCached(t *testing.T) {
	h := newHier(t)
	udd := mustCreate(t, h, alice, RootUID, "udd", CreateOptions{Kind: KindDirectory})
	grantStatus(t, h, udd)
	doc := mustCreate(t, h, alice, udd, "doc", CreateOptions{Kind: KindSegment})
	other := mustCreate(t, h, alice, RootUID, "other", CreateOptions{Kind: KindDirectory})
	sib := mustCreate(t, h, alice, other, "sib", CreateOptions{Kind: KindSegment})
	if err := h.SetACL(alice, unc, doc, bobPat(), acl.ModeRead); err != nil {
		t.Fatal(err)
	}
	warmSeg(t, h, ">udd>doc", doc)

	// Mutations in a *different* subtree: ACL churn on the sibling
	// segment and a create inside the sibling directory. Neither touches
	// any object on the >udd>doc walk.
	if err := h.SetACL(alice, unc, sib, bobPat(), acl.ModeRead); err != nil {
		t.Fatal(err)
	}
	mustCreate(t, h, alice, other, "sib2", CreateOptions{Kind: KindSegment})

	if uid, err := h.ResolvePath(bob, unc, ">udd>doc"); err != nil || uid != doc {
		t.Fatalf("resolve after unrelated churn: %#x, %v", uid, err)
	}
	if _, err := h.CheckSegmentAccess(bob, unc, doc, acl.ModeRead); err != nil {
		t.Fatalf("check after unrelated churn: %v", err)
	}
}

func TestSiblingResolveWalksEveryComponent(t *testing.T) {
	h := newHier(t)
	cur := RootUID
	for _, name := range []string{"udd", "a", "b"} {
		cur = mustCreate(t, h, alice, cur, name, CreateOptions{Kind: KindDirectory})
	}
	c := mustCreate(t, h, alice, cur, "c", CreateOptions{Kind: KindSegment})
	d := mustCreate(t, h, alice, cur, "d", CreateOptions{Kind: KindSegment})

	if uid, err := h.ResolvePath(alice, unc, ">udd>a>b>c"); err != nil || uid != c {
		t.Fatalf("cold resolve: %#x, %v", uid, err)
	}
	st := h.OpStats()
	if uid, err := h.ResolvePath(alice, unc, ">udd>a>b>d"); err != nil || uid != d {
		t.Fatalf("sibling resolve: %#x, %v", uid, err)
	}
	// The kernel keeps no name cache: the sibling resolution walks all
	// four components again, even though the first walk just passed
	// through >udd>a>b.
	if got := h.OpStats().Lookups - st.Lookups; got != 4 {
		t.Errorf("sibling resolve did %d lookups, want 4", got)
	}
}

func TestInteriorLinkRevocationInvalidatesCachedPath(t *testing.T) {
	// >short is a link to >real; bob reaches >real>doc via >short>doc. A
	// revocation on >real (inside the link target) must deny the
	// >short>doc walk even though the mutation never names >short.
	h := newHier(t)
	real := mustCreate(t, h, alice, RootUID, "real", CreateOptions{Kind: KindDirectory})
	grantStatus(t, h, real)
	doc := mustCreate(t, h, alice, real, "doc", CreateOptions{Kind: KindSegment})
	if err := h.AddLink(alice, unc, RootUID, "short", ">real"); err != nil {
		t.Fatal(err)
	}
	if err := h.SetACL(alice, unc, doc, bobPat(), acl.ModeRead); err != nil {
		t.Fatal(err)
	}
	warmSeg(t, h, ">short>doc", doc)
	if err := h.SetACL(alice, unc, real, anyPat(), 0); err != nil {
		t.Fatal(err)
	}
	if uid, err := h.ResolvePath(bob, unc, ">short>doc"); err == nil {
		t.Fatalf("revoked interior dir served via link path: %#x", uid)
	}
}

func TestLinkTargetDeleteAndRecreate(t *testing.T) {
	h := newHier(t)
	dir := mustCreate(t, h, alice, RootUID, "d", CreateOptions{Kind: KindDirectory})
	old := mustCreate(t, h, alice, dir, "t", CreateOptions{Kind: KindSegment})
	if err := h.AddLink(alice, unc, RootUID, "ln", ">d>t"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if uid, err := h.ResolvePath(alice, unc, ">ln"); err != nil || uid != old {
			t.Fatalf("resolve old target (pass %d): %#x, %v", i, uid, err)
		}
	}
	if err := h.Delete(alice, unc, dir, "t"); err != nil {
		t.Fatal(err)
	}
	fresh := mustCreate(t, h, alice, dir, "t", CreateOptions{Kind: KindSegment})
	if fresh == old {
		t.Fatalf("recreate reused uid %#x", old)
	}
	uid, err := h.ResolvePath(alice, unc, ">ln")
	if err != nil || uid != fresh {
		t.Fatalf("resolve after recreate = %#x, %v; want fresh %#x", uid, err, fresh)
	}
}

func TestLinkChainsUpToMaxDepth(t *testing.T) {
	h := newHier(t)
	seg := mustCreate(t, h, alice, RootUID, "end", CreateOptions{Kind: KindSegment})
	// l1 -> end, l2 -> l1, ... each hop is one level of chase depth.
	prev := ">end"
	for i := 1; i <= maxLinkDepth; i++ {
		name := fmt.Sprintf("l%d", i)
		if err := h.AddLink(alice, unc, RootUID, name, prev); err != nil {
			t.Fatal(err)
		}
		prev = ">" + name
	}
	// A chain of exactly maxLinkDepth links resolves, on every pass...
	for i := 0; i < 2; i++ {
		uid, err := h.ResolvePath(alice, unc, fmt.Sprintf(">l%d", maxLinkDepth))
		if err != nil || uid != seg {
			t.Fatalf("chain of %d (pass %d): %#x, %v", maxLinkDepth, i, uid, err)
		}
	}
	// ...one more hop exceeds the bound.
	if err := h.AddLink(alice, unc, RootUID, "over", prev); err != nil {
		t.Fatal(err)
	}
	if _, err := h.ResolvePath(alice, unc, ">over"); !errors.Is(err, ErrLinkLoop) {
		t.Errorf("chain of %d = %v, want ErrLinkLoop", maxLinkDepth+1, err)
	}
}

func TestPathOfBoundedOnLongParentCycle(t *testing.T) {
	h := newHier(t)
	a := mustCreate(t, h, alice, RootUID, "a", CreateOptions{Kind: KindDirectory})
	b := mustCreate(t, h, alice, a, "b", CreateOptions{Kind: KindDirectory})
	// Manufacture a 2-cycle a<->b that never reaches the root; before the
	// depth bound this spun forever (only self-parent was detected).
	objA, _ := h.Object(a)
	objA.parent = b
	if _, err := h.PathOf(b); !errors.Is(err, ErrParentLoop) {
		t.Errorf("PathOf on 2-cycle = %v, want ErrParentLoop", err)
	}
}

// TestInterleavedResolveAndRevoke interleaves resolutions with ACL churn:
// every revoke must be denied on the very next check, and every re-grant
// allowed, with the same paths resolved in every round before.
func TestInterleavedResolveAndRevoke(t *testing.T) {
	h := newHier(t)
	const dirs = 8
	segUIDs := make([]uint64, dirs)
	paths := make([]string, dirs)
	for i := 0; i < dirs; i++ {
		d := mustCreate(t, h, alice, RootUID, fmt.Sprintf("d%d", i), CreateOptions{Kind: KindDirectory})
		grantStatus(t, h, d)
		segUIDs[i] = mustCreate(t, h, alice, d, "doc", CreateOptions{Kind: KindSegment})
		paths[i] = fmt.Sprintf(">d%d>doc", i)
		if err := h.SetACL(alice, unc, segUIDs[i], bobPat(), acl.ModeRead); err != nil {
			t.Fatal(err)
		}
	}
	access := func(i int) error {
		uid, err := h.ResolvePath(bob, unc, paths[i])
		if err != nil {
			return err
		}
		_, err = h.CheckSegmentAccess(bob, unc, uid, acl.ModeRead)
		return err
	}
	for round := 0; round < 200; round++ {
		for i := range paths {
			if err := access(i); err != nil {
				t.Fatalf("round %d: granted %s denied: %v", round, paths[i], err)
			}
		}
		i := (round * 3) % dirs
		if err := h.SetACL(alice, unc, segUIDs[i], bobPat(), 0); err != nil {
			t.Fatal(err)
		}
		if access(i) == nil {
			t.Fatalf("round %d: revoked %s honored", round, paths[i])
		}
		if err := h.SetACL(alice, unc, segUIDs[i], bobPat(), acl.ModeRead); err != nil {
			t.Fatal(err)
		}
	}
	for i, seg := range segUIDs {
		if err := h.SetACL(alice, unc, seg, bobPat(), 0); err != nil {
			t.Fatal(err)
		}
		if access(i) == nil {
			t.Errorf("seg %d: revoked access honored after churn", i)
		}
	}
}
