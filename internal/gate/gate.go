// Package gate implements the kernel's gatekeeper: the registry of gate
// entry points through which outer rings enter the security kernel, plus
// argument validation helpers.
//
// The number of gates — and in particular the number of *user-available*
// gates — is the paper's primary structural metric: the linker removal
// "eliminated 10% of the gate entry points into the supervisor", and
// together with the reference-name removal cut the user-available
// supervisor entries "by approximately one third". Because every kernel
// configuration in this reproduction builds its entry vector through this
// registry, those percentages are measured rather than asserted.
package gate

import (
	"fmt"
	"sort"

	"repro/internal/machine"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// Category classifies a gate by the functional area it serves. Categories
// let the experiment harness report which areas shrank at each stage of the
// kernel-reduction programme.
type Category string

// Gate categories.
const (
	CatFileSystem   Category = "file-system"
	CatAddressSpace Category = "address-space"
	CatLinker       Category = "linker"
	CatRefName      Category = "reference-names"
	CatProcess      Category = "process"
	CatIPC          Category = "ipc"
	CatIO           Category = "io"
	CatLogin        Category = "login"
	CatInit         Category = "initialization"
	CatPolicy       Category = "policy"
	CatMisc         Category = "misc"
)

// Def defines one gate entry point.
type Def struct {
	// Name is the unique gate name, e.g. "hcs_$initiate".
	Name string
	// Category is the functional area.
	Category Category
	// UserAvailable marks gates callable from the user ring; the rest are
	// interior entries available only to more privileged non-kernel rings
	// (e.g. the policy ring).
	UserAvailable bool
	// CodeUnits approximates the amount of protected code behind the gate,
	// in arbitrary units (used by the kernel-inventory experiment).
	CodeUnits int
	// Arity, when positive, is the exact argument count the gatekeeper
	// enforces before the body runs. Zero leaves the count unchecked
	// (gates with optional or variadic argument lists validate inline).
	Arity int
	// Impl is the simulated implementation.
	Impl machine.EntryFunc
}

// Registry collects the gate definitions of one kernel configuration and
// compiles them into the kernel's gate procedure segment.
type Registry struct {
	defs     []Def
	byName   map[string]int // name -> entry index
	counters []*counters    // parallel to defs
	ring     *trace.Ring    // trace spine destination, nil = off
	// metrics is where the spine publishes per-gate accounting
	// (gate.<name>.calls/errors/rejected/vcycles). NewRegistry starts
	// with a private registry so Stats works standalone; SetMetrics
	// repoints the accounting at a shared one.
	metrics *metrics.Registry
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]int), metrics: metrics.New()}
}

// Register adds a gate definition. Names must be unique.
func (r *Registry) Register(d Def) error {
	if d.Name == "" {
		return fmt.Errorf("gate: empty gate name")
	}
	if d.Impl == nil {
		return fmt.Errorf("gate: gate %q has no implementation", d.Name)
	}
	if d.CodeUnits <= 0 {
		return fmt.Errorf("gate: gate %q must declare positive code units", d.Name)
	}
	if _, dup := r.byName[d.Name]; dup {
		return fmt.Errorf("gate: duplicate gate %q", d.Name)
	}
	r.byName[d.Name] = len(r.defs)
	r.defs = append(r.defs, d)
	r.counters = append(r.counters, newCounters(r.metrics, d.Name))
	return nil
}

// MustRegister registers d and panics on error; kernel construction uses it
// because a malformed gate table is a programming error, not a runtime
// condition.
func (r *Registry) MustRegister(d Def) {
	if err := r.Register(d); err != nil {
		panic(err)
	}
}

// EntryIndex returns the entry number of the named gate.
func (r *Registry) EntryIndex(name string) (int, error) {
	i, ok := r.byName[name]
	if !ok {
		return 0, fmt.Errorf("gate: no gate named %q", name)
	}
	return i, nil
}

// Count returns the total number of gates.
func (r *Registry) Count() int { return len(r.defs) }

// UserAvailableCount returns the number of user-available gates.
func (r *Registry) UserAvailableCount() int {
	n := 0
	for _, d := range r.defs {
		if d.UserAvailable {
			n++
		}
	}
	return n
}

// CodeUnits returns the total protected code units behind all gates.
func (r *Registry) CodeUnits() int {
	n := 0
	for _, d := range r.defs {
		n += d.CodeUnits
	}
	return n
}

// CategoryCounts returns gates per category, sorted by category name.
type CategoryCount struct {
	Category Category
	Gates    int
	Units    int
}

// ByCategory summarizes the registry per category.
func (r *Registry) ByCategory() []CategoryCount {
	m := map[Category]*CategoryCount{}
	for _, d := range r.defs {
		c := m[d.Category]
		if c == nil {
			c = &CategoryCount{Category: d.Category}
			m[d.Category] = c
		}
		c.Gates++
		c.Units += d.CodeUnits
	}
	out := make([]CategoryCount, 0, len(m))
	for _, c := range m {
		out = append(out, *c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Category < out[j].Category })
	return out
}

// Names returns all gate names in registration order.
func (r *Registry) Names() []string {
	out := make([]string, len(r.defs))
	for i, d := range r.defs {
		out[i] = d.Name
	}
	return out
}

// Defs returns a copy of the definitions in registration order.
func (r *Registry) Defs() []Def {
	out := make([]Def, len(r.defs))
	copy(out, r.defs)
	return out
}

// BuildProcedure compiles the registry into the kernel's gate segment: a
// machine.Procedure whose entry i is gate i behind its gatekeeper (see
// gatekeeper in spine.go). Every entry is a declared gate
// (machine.SDW.Gates should be set to Count()).
func (r *Registry) BuildProcedure() *machine.Procedure {
	entries := make([]machine.EntryFunc, len(r.defs))
	for i, d := range r.defs {
		entries[i] = r.gatekeeper(d, r.counters[i])
	}
	return &machine.Procedure{Name: "kernel_gates", Entries: entries}
}

// MaxArgs bounds argument lists accepted through any gate. The gatekeeper
// rejects oversized argument lists before the gate body sees them — the
// first lesson of the paper's review activity (malformed arguments caused
// supervisor crashes).
const MaxArgs = 16

// Arg safely fetches argument i, returning an error rather than letting the
// kernel index out of range on a malformed call.
func Arg(name string, args []uint64, i int) (uint64, error) {
	if i < 0 || i >= len(args) {
		return 0, BadArgs(name, fmt.Errorf("gate %s: missing argument %d (got %d)", name, i, len(args)))
	}
	return args[i], nil
}

// NeedArgs verifies the argument count is exactly n.
func NeedArgs(name string, args []uint64, n int) error {
	if len(args) != n {
		return BadArgs(name, fmt.Errorf("gate %s: want %d arguments, got %d", name, n, len(args)))
	}
	return nil
}
