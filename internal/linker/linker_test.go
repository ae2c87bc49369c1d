package linker

import (
	"errors"
	"testing"
	"testing/quick"

	"repro/internal/machine"
)

func TestSymtabRoundTrip(t *testing.T) {
	syms := []Symbol{
		{Name: "main", Entry: 0},
		{Name: "sqrt", Entry: 1},
		{Name: "a_rather_long_entry_point_name_indeed", Entry: 7},
	}
	words, err := EncodeSymtab(syms)
	if err != nil {
		t.Fatal(err)
	}
	read := func(off int) (uint64, error) {
		if off < 0 || off >= len(words) {
			return 0, errors.New("out of range")
		}
		return words[off], nil
	}
	for _, s := range syms {
		e, err := FindEntry(read, s.Name)
		if err != nil || e != s.Entry {
			t.Errorf("FindEntry(%q) = %d, %v; want %d", s.Name, e, err, s.Entry)
		}
	}
	if _, err := FindEntry(read, "missing"); !errors.Is(err, ErrNoSuchEntry) {
		t.Errorf("missing entry = %v", err)
	}
}

func TestEncodeValidation(t *testing.T) {
	if _, err := EncodeSymtab([]Symbol{{Name: "", Entry: 0}}); err == nil {
		t.Error("empty name should fail")
	}
	if _, err := EncodeSymtab([]Symbol{{Name: "x", Entry: -1}}); err == nil {
		t.Error("negative entry should fail")
	}
	big := make([]Symbol, MaxSymbols+1)
	for i := range big {
		big[i] = Symbol{Name: "x", Entry: 0}
	}
	if _, err := EncodeSymtab(big); err == nil {
		t.Error("too many symbols should fail")
	}
}

func readerOver(words []uint64) WordReader {
	return func(off int) (uint64, error) {
		if off < 0 || off >= len(words) {
			return 0, errors.New("segment bounds exceeded")
		}
		return words[off], nil
	}
}

func TestMalstructuredSymtabsRejected(t *testing.T) {
	good, err := EncodeSymtab([]Symbol{{Name: "main", Entry: 0}})
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]uint64{
		"bad magic":            {0xBAD, 1, 4},
		"huge count":           {SymtabMagic, MaxSymbols + 1},
		"truncated after head": {SymtabMagic, 1},
		"zero name length":     {SymtabMagic, 1, 0, 0},
		"absurd name length":   {SymtabMagic, 1, 99999, 0},
		"truncated name":       {SymtabMagic, 1, 20, 0x41},
		"truncated entry":      good[:len(good)-1],
	}
	for label, words := range cases {
		_, err := FindEntry(readerOver(words), "main")
		if err == nil {
			t.Errorf("%s: parser accepted malstructured table", label)
			continue
		}
		if !errors.Is(err, ErrCorruptSymtab) && !errors.Is(err, ErrBadMagic) {
			t.Errorf("%s: error %v not classified as corruption", label, err)
		}
	}
}

// Property: FindEntry never panics and never returns success on random
// word soup unless the soup happens to be well-formed (checked by magic).
func TestQuickParserTotality(t *testing.T) {
	f := func(words []uint64, name string) bool {
		if name == "" {
			name = "x"
		}
		entry, err := FindEntry(readerOver(words), name)
		if err != nil {
			return true
		}
		// Success requires at least a valid header.
		return len(words) >= 2 && words[0] == SymtabMagic && entry >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// buildEnv wires a linker test environment with one procedure segment named
// "math" that has a symbol table and two entries.
func buildEnv(t *testing.T) (*machine.Processor, *SearchRules, *machine.DescriptorSegment) {
	t.Helper()
	ds := machine.NewDescriptorSegment(32)
	clk := machine.NewClock()
	p := machine.NewProcessor(ds, clk, machine.Model6180(), machine.UserRing, nil)

	symsWords, err := EncodeSymtab([]Symbol{{Name: "sqrt", Entry: 0}, {Name: "square", Entry: 1}})
	if err != nil {
		t.Fatal(err)
	}
	backing := machine.NewCoreBacking(len(symsWords))
	copy(backing.Words(), symsWords)
	mathProc := &machine.Procedure{Name: "math", Entries: []machine.EntryFunc{
		func(_ *machine.ExecContext, a []uint64) ([]uint64, error) { return []uint64{a[0] / 2}, nil },
		func(_ *machine.ExecContext, a []uint64) ([]uint64, error) { return []uint64{a[0] * a[0]}, nil },
	}}

	installed := false
	env := &SearchRules{
		Dirs: []func(string) (uint64, bool){
			func(name string) (uint64, bool) {
				if name == "math" {
					return 77, true
				}
				return 0, false
			},
		},
		InitiateFn: func(uid uint64) (machine.SegNo, error) {
			if uid != 77 {
				return 0, errors.New("unknown uid")
			}
			if !installed {
				if err := ds.Set(10, machine.SDW{
					Proc:     mathProc,
					Backing:  backing,
					Mode:     machine.ModeRead | machine.ModeExecute,
					Brackets: machine.UserBrackets(machine.UserRing),
				}); err != nil {
					return 0, err
				}
				installed = true
			}
			return 10, nil
		},
	}
	return p, env, ds
}

func TestLinkerResolvesAndSnaps(t *testing.T) {
	p, env, _ := buildEnv(t)
	l := New(env, machine.UserRing)
	p.Linker = l

	out, err := p.CallSym(5, machine.LinkRef{SegName: "math", EntryName: "square"}, []uint64{6})
	if err != nil {
		t.Fatalf("CallSym: %v", err)
	}
	if out[0] != 36 {
		t.Errorf("square(6) = %d", out[0])
	}
	// Second call uses the snapped link: linker not consulted again.
	if _, err := p.CallSym(5, machine.LinkRef{SegName: "math", EntryName: "square"}, []uint64{3}); err != nil {
		t.Fatal(err)
	}
	if l.Stats().Resolutions != 1 {
		t.Errorf("resolutions = %d, want 1", l.Stats().Resolutions)
	}
}

func TestLinkerSearchMiss(t *testing.T) {
	p, env, _ := buildEnv(t)
	l := New(env, machine.UserRing)
	p.Linker = l
	_, err := p.CallSym(5, machine.LinkRef{SegName: "nonexistent", EntryName: "main"}, nil)
	if err == nil || !errors.Is(err, ErrSegmentNotFound) {
		t.Errorf("miss = %v", err)
	}
	if l.Stats().SearchMisses != 1 {
		t.Errorf("misses = %d", l.Stats().SearchMisses)
	}
}

func TestLinkerMalformedTableCountsParseFailure(t *testing.T) {
	p, env, ds := buildEnv(t)
	// Corrupt the symbol table after installation by initiating first.
	l := New(env, machine.KernelRing)
	p.Linker = l
	if _, err := p.CallSym(5, machine.LinkRef{SegName: "math", EntryName: "sqrt"}, []uint64{16}); err != nil {
		t.Fatal(err)
	}
	sdw := ds.SDW(10)
	cb := sdw.Backing.(*machine.CoreBacking)
	cb.Words()[0] = 0xBAD // smash the magic
	_, err := p.CallSym(6, machine.LinkRef{SegName: "math", EntryName: "square"}, nil)
	if err == nil {
		t.Fatal("corrupted table should fail")
	}
	if l.Stats().ParseFailures != 1 {
		t.Errorf("parse failures = %d, want 1", l.Stats().ParseFailures)
	}
}

func TestLinkerNoEntryName(t *testing.T) {
	p, env, _ := buildEnv(t)
	l := New(env, machine.UserRing)
	p.Linker = l
	if _, err := p.CallSym(5, machine.LinkRef{SegName: "math", EntryName: "cbrt"}, nil); !errors.Is(err, ErrNoSuchEntry) {
		t.Errorf("unknown entry = %v", err)
	}
}

func TestSearchRulesOrder(t *testing.T) {
	calls := []string{}
	env := &SearchRules{
		Dirs: []func(string) (uint64, bool){
			func(name string) (uint64, bool) { calls = append(calls, "first"); return 0, false },
			func(name string) (uint64, bool) { calls = append(calls, "second"); return 42, true },
			func(name string) (uint64, bool) { calls = append(calls, "third"); return 43, true },
		},
	}
	uid, err := env.LookupSegment("x")
	if err != nil || uid != 42 {
		t.Errorf("lookup = %d, %v", uid, err)
	}
	if len(calls) != 2 {
		t.Errorf("search order = %v", calls)
	}
	if _, err := env.Initiate(42); err == nil {
		t.Error("initiate without function should fail")
	}
}
