package gate

import (
	"strings"
	"testing"

	"repro/internal/machine"
)

func echo(_ *machine.ExecContext, args []uint64) ([]uint64, error) { return args, nil }

func TestRegisterAndLookup(t *testing.T) {
	r := NewRegistry(nil)
	if err := r.Register(Def{Name: "hcs_$initiate", Category: CatAddressSpace, UserAvailable: true, CodeUnits: 3, Impl: echo}); err != nil {
		t.Fatal(err)
	}
	if err := r.Register(Def{Name: "hcs_$initiate", Category: CatAddressSpace, CodeUnits: 1, Impl: echo}); err == nil {
		t.Error("duplicate name should fail")
	}
	i, ok := r.EntryIndex("hcs_$initiate")
	if !ok || i != 0 {
		t.Errorf("EntryIndex = %d, %v", i, ok)
	}
	if _, ok := r.EntryIndex("nope"); ok {
		t.Error("missing gate lookup should fail")
	}
}

func TestRegisterValidation(t *testing.T) {
	r := NewRegistry(nil)
	if err := r.Register(Def{Name: "", CodeUnits: 1, Impl: echo}); err == nil {
		t.Error("empty name should fail")
	}
	if err := r.Register(Def{Name: "x", CodeUnits: 1}); err == nil {
		t.Error("nil impl should fail")
	}
	if err := r.Register(Def{Name: "x", CodeUnits: 0, Impl: echo}); err == nil {
		t.Error("zero code units should fail")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustRegister should panic on error")
		}
	}()
	r.MustRegister(Def{Name: "", CodeUnits: 1, Impl: echo})
}

func TestCounts(t *testing.T) {
	r := NewRegistry(nil)
	r.MustRegister(Def{Name: "a", Category: CatFileSystem, UserAvailable: true, CodeUnits: 5, Impl: echo})
	r.MustRegister(Def{Name: "b", Category: CatFileSystem, UserAvailable: false, CodeUnits: 2, Impl: echo})
	r.MustRegister(Def{Name: "c", Category: CatLinker, UserAvailable: true, CodeUnits: 7, Impl: echo})
	if r.Count() != 3 || r.UserAvailableCount() != 2 || r.CodeUnits() != 14 {
		t.Errorf("counts = %d/%d/%d", r.Count(), r.UserAvailableCount(), r.CodeUnits())
	}
	cats := r.ByCategory()
	if len(cats) != 2 {
		t.Fatalf("categories = %v", cats)
	}
	if cats[0].Category != CatFileSystem || cats[0].Gates != 2 || cats[0].Units != 7 {
		t.Errorf("file-system category = %+v", cats[0])
	}
	if len(r.Names()) != 3 || r.Names()[2] != "c" {
		t.Errorf("names = %v", r.Names())
	}
	if len(r.Defs()) != 3 {
		t.Errorf("defs = %d", len(r.Defs()))
	}
}

func TestBuildProcedureAndValidation(t *testing.T) {
	r := NewRegistry(nil)
	r.MustRegister(Def{Name: "echo", Category: CatMisc, UserAvailable: true, CodeUnits: 1, Impl: echo})
	proc := r.BuildProcedure()
	if len(proc.Entries) != 1 {
		t.Fatalf("entries = %d", len(proc.Entries))
	}
	out, err := proc.Entries[0](nil, []uint64{1, 2})
	if err != nil || len(out) != 2 {
		t.Errorf("call = %v, %v", out, err)
	}
	// Oversized argument lists are rejected by the gatekeeper wrapper.
	big := make([]uint64, MaxArgs+1)
	if _, err := proc.Entries[0](nil, big); err == nil || !strings.Contains(err.Error(), "exceeds maximum") {
		t.Errorf("oversized args = %v, want gatekeeper rejection", err)
	}
}

func TestArgHelpers(t *testing.T) {
	if v, err := Arg("g", []uint64{7, 8}, 1); err != nil || v != 8 {
		t.Errorf("Arg = %d, %v", v, err)
	}
	if _, err := Arg("g", []uint64{7}, 1); err == nil {
		t.Error("missing arg should fail")
	}
	if _, err := Arg("g", []uint64{7}, -1); err == nil {
		t.Error("negative index should fail")
	}
	if err := NeedArgs("g", []uint64{1, 2}, 2); err != nil {
		t.Errorf("NeedArgs: %v", err)
	}
	if err := NeedArgs("g", []uint64{1}, 2); err == nil {
		t.Error("wrong arity should fail")
	}
}
