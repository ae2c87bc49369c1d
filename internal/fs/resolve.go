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
// Every call walks every component: one directory lookup and one access
// check per directory, including directories reached through links. No
// name is cached, so a revocation takes effect on the very next walk.
func (h *Hierarchy) ResolvePath(who Principal, subj Label, path string) (uint64, error) {
	h.ops.resolves.Inc()
	return h.resolve(who, subj, path, 0)
}

// resolve walks path from the root; depth counts the links chased so far.
func (h *Hierarchy) resolve(who Principal, subj Label, path string, depth int) (uint64, error) {
	if depth > maxLinkDepth {
		return 0, fmt.Errorf("%w: %q", ErrLinkLoop, path)
	}
	parts, err := SplitPath(path)
	if err != nil {
		return 0, err
	}
	cur := uint64(RootUID)
	for i, name := range parts {
		dir, err := h.directory(cur)
		if err != nil {
			return 0, fmt.Errorf("resolving %q component %q: %w", path, name, err)
		}
		entry, err := lookupEntry(h, dir, who, subj, name)
		if err != nil {
			return 0, fmt.Errorf("resolving %q component %q: %w", path, name, err)
		}
		if entry.IsLink() {
			// Chase the link, then continue with the remaining components.
			target, err := h.resolve(who, subj, entry.LinkTo, depth+1)
			if err != nil {
				return 0, fmt.Errorf("chasing link %q -> %q: %w", name, entry.LinkTo, err)
			}
			cur = target
			continue
		}
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
