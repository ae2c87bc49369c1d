package fs

import (
	"fmt"
	"strings"
)

// PathSep is the Multics path-name separator: ">udd>CSR>Schroeder>thesis".
const PathSep = ">"

// maxLinkDepth bounds link chasing during resolution.
const maxLinkDepth = 8

// maxParentDepth bounds PathOf's climb toward the root, the parent-pointer
// analogue of maxLinkDepth: a corrupted hierarchy can contain parent cycles
// longer than the self-loop (A→B→A), which would otherwise walk forever.
// No legitimate tree in this reproduction approaches this depth.
const maxParentDepth = 512

// SplitPath parses an absolute Multics tree name into its components. The
// root itself is the empty component list.
func SplitPath(path string) ([]string, error) {
	if !strings.HasPrefix(path, PathSep) {
		return nil, fmt.Errorf("%w: %q is not absolute", ErrBadPath, path)
	}
	trimmed := strings.TrimPrefix(path, PathSep)
	if trimmed == "" {
		return nil, nil
	}
	parts := strings.Split(trimmed, PathSep)
	for _, p := range parts {
		if err := validName(p); err != nil {
			return nil, err
		}
	}
	return parts, nil
}

// JoinPath builds an absolute tree name from components.
func JoinPath(parts ...string) string {
	if len(parts) == 0 {
		return PathSep
	}
	return PathSep + strings.Join(parts, PathSep)
}

// ResolvePath is the *old* kernel interface: the supervisor itself follows
// the character-string tree name through the hierarchy, performing the
// per-directory access checks, and returns the UID of the named object.
// After the reference-name removal this algorithm runs in the user ring,
// implemented with Lookup calls through the per-directory gate interface.
//
// Resolution is memoized per (path prefix, principal, label) by the path
// cache; a repeat resolution of a cached name costs one probe plus a
// generation check of every object the original walk relied on, instead of
// the full per-component walk. See pathcache.go for the safety argument.
func (h *Hierarchy) ResolvePath(who Principal, subj Label, path string) (uint64, error) {
	h.ops.resolves.Inc()
	// Entries filled under this epoch stay on the O(1) validation path
	// until the next mutation anywhere (see pathcache.go).
	ep := h.mutEpoch
	if h.paths.enabled {
		// Fast path: the exact name was resolved before for this subject
		// and nothing along its walk has changed. No parsing needed — a
		// cache key can only exist if this identical string resolved.
		sp := h.paths.subjs[subjKey{who: who, label: subj.CacheKey()}]
		if e := h.paths.lookup(sp, path, ep); e != nil {
			return e.uid, nil
		}
	}
	var steps []pathStep
	return h.resolve(who, subj, path, 0, ep, &steps, false)
}

// componentEnds returns, for each path component, the byte offset just past
// it, so path[:ends[i]] is the canonical prefix naming components 0..i.
func componentEnds(path string) []int {
	var ends []int
	for i := 1; i < len(path); i++ {
		if path[i] == '>' {
			ends = append(ends, i)
		}
	}
	return append(ends, len(path))
}

// resolve walks path from the root. acc accumulates the validation chain:
// one pathStep per directory whose ACL was checked and entry map read,
// including directories reached while chasing interior links (a sub-walk's
// dependencies are the caller's dependencies too — a revocation inside a
// link target must invalidate every cached prefix that chased the link).
// probeFull controls whether the full-path cache entry is probed here;
// ResolvePath already probed it for the top-level call. ep is the mutation
// epoch when the outermost walk began; entries filled with it are
// trivially valid while it stays current.
func (h *Hierarchy) resolve(who Principal, subj Label, path string, depth int, ep uint64, acc *[]pathStep, probeFull bool) (uint64, error) {
	if depth > maxLinkDepth {
		return 0, fmt.Errorf("%w: %q", ErrLinkLoop, path)
	}
	parts, err := SplitPath(path)
	if err != nil {
		return 0, err
	}
	if len(parts) == 0 {
		return RootUID, nil
	}

	caching := h.paths.enabled
	var sp *subjPaths
	var ends []int
	cur := uint64(RootUID)
	start := 0 // first component not satisfied from cache
	base := 0  // acc length at frame entry; this frame's fills snapshot acc[base:]
	if caching {
		// One subject-view fetch serves every prefix probe and fill of
		// this walk; the per-prefix key is then just the path string.
		sp = h.paths.viewOrCreate(subjKey{who: who, label: subj.CacheKey()})
		ends = componentEnds(path)
		base = len(*acc)
		// Probe cached prefixes, longest first: a hit at k components
		// means the walk restarts at component k with the hit's
		// validation chain adopted as our own.
		top := len(parts)
		if !probeFull {
			top--
		}
		for k := top; k >= 1; k-- {
			e := h.paths.lookup(sp, path[:ends[k-1]], ep)
			if e == nil {
				continue
			}
			*acc = append(*acc, e.steps...)
			cur = e.uid
			start = k
			break
		}
		if start == len(parts) {
			return cur, nil
		}
	}

	for i := start; i < len(parts); i++ {
		name := parts[i]
		dir, err := h.directory(cur)
		if err != nil {
			return 0, fmt.Errorf("resolving %q component %q: %w", path, name, err)
		}
		entry, err := h.lookupEntry(dir, who, subj, name)
		if err != nil {
			return 0, fmt.Errorf("resolving %q component %q: %w", path, name, err)
		}
		if caching {
			*acc = append(*acc, pathStep{obj: dir, aclGen: dir.aclGen, entGen: dir.entGen})
		}
		if entry.IsLink() {
			// Chase the link, then continue with the remaining components.
			target, err := h.resolve(who, subj, entry.LinkTo, depth+1, ep, acc, true)
			if err != nil {
				return 0, fmt.Errorf("chasing link %q -> %q: %w", name, entry.LinkTo, err)
			}
			cur = target
		} else {
			if i < len(parts)-1 {
				// Interior components must be directories; the next
				// iteration verifies this, but fail early with a clear error.
				obj, err := h.Object(entry.UID)
				if err != nil {
					return 0, err
				}
				if obj.Kind != KindDirectory {
					return 0, fmt.Errorf("%w: %q in %q", ErrNotDirectory, name, path)
				}
			}
			cur = entry.UID
		}
		if caching {
			// Fill the prefix ending at this component. The chain is
			// snapshot-copied: acc keeps growing and entries are immutable.
			chain := make([]pathStep, len(*acc)-base)
			copy(chain, (*acc)[base:])
			h.paths.store(sp, path[:ends[i]],
				&pathEntry{uid: cur, epoch: ep, steps: chain})
		}
	}
	return cur, nil
}

// PathOf reconstructs the absolute tree name of uid by following parent
// pointers. It is a status tool (used by examples and error messages), not
// a kernel interface.
func (h *Hierarchy) PathOf(uid uint64) (string, error) {
	if uid == RootUID {
		return PathSep, nil
	}
	var parts []string
	for hops := 0; uid != RootUID; hops++ {
		if hops >= maxParentDepth {
			return "", fmt.Errorf("%w: parent chain from %#x exceeds %d hops", ErrParentLoop, uid, maxParentDepth)
		}
		obj, err := h.Object(uid)
		if err != nil {
			return "", err
		}
		parts = append(parts, obj.name)
		if obj.parent == uid {
			return "", fmt.Errorf("fs: object %#x is its own parent", uid)
		}
		uid = obj.parent
	}
	for i, j := 0, len(parts)-1; i < j; i, j = i+1, j-1 {
		parts[i], parts[j] = parts[j], parts[i]
	}
	return JoinPath(parts...), nil
}
