package workload

import (
	"reflect"
	"testing"

	"repro/multics"
)

// TestLegacyAdapterReproducesGenScripts pins the compatibility contract:
// the Stormer persona compiles into exactly the scripts of the historical
// generator, stormScripts — same accounts, same levels, same
// echo/sum/spin stream — with its bursts firing on consecutive rounds.
// TestStormDigestGolden pins the stream itself.
func TestLegacyAdapterReproducesGenScripts(t *testing.T) {
	// Users 0 selects the historical min(conns, 8) accounts.
	const conns, steps, burst, users = 12, 10, 4, 8
	plan, err := NewScenario("storm", 75).Mix(Stormer(steps, burst, 0), 1).Sessions(conns).Plan()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plan.Scripts, stormScripts(conns, steps, users, 75)) {
		t.Fatal("Stormer scripts differ from the historical generator's")
	}
	if len(plan.Accounts) != users {
		t.Fatalf("got %d accounts, want %d", len(plan.Accounts), users)
	}
	for i, ws := range plan.Windows {
		wantRound := 0
		for base := 0; base < steps; base += burst {
			hi := base + burst
			if hi > steps {
				hi = steps
			}
			w := ws[wantRound]
			if w != (Window{Round: wantRound, Lo: base, Hi: hi}) {
				t.Fatalf("session %d window %d = %+v, want {%d %d %d}", i, wantRound, w, wantRound, base, hi)
			}
			wantRound++
		}
	}
}

// TestLegacyDefaults pins the historical zero-value behavior: 8
// connections, 8 steps, one whole-script burst, min(conns, 8) users.
func TestLegacyDefaults(t *testing.T) {
	plan, err := NewScenario("storm", 0).Mix(Stormer(0, 0, 0), 1).Plan()
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Scripts) != 8 || len(plan.Scripts[0].Steps) != 8 {
		t.Fatalf("defaults: %d conns × %d steps, want 8 × 8", len(plan.Scripts), len(plan.Scripts[0].Steps))
	}
	if len(plan.Windows[0]) != 1 {
		t.Fatalf("default burst should cover the whole script, got %d windows", len(plan.Windows[0]))
	}
	if len(plan.Accounts) != 8 {
		t.Fatalf("got %d accounts, want 8", len(plan.Accounts))
	}
}

func TestScenarioMixSplit(t *testing.T) {
	plan, err := NewScenario("split", 1).
		Mix(InteractiveEditor(), 3).
		Mix(BatchCompiler(), 1).
		Sessions(8).Plan()
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, name := range plan.Personas {
		counts[name]++
	}
	if counts["editor"] != 6 || counts["compiler"] != 2 {
		t.Fatalf("3:1 split of 8 sessions = %v, want editor 6 compiler 2", counts)
	}
}

func TestScenarioTenantLevelsAlternate(t *testing.T) {
	plan, err := NewScenario("tenants", 9).Mix(TenantPair(), 1).Sessions(4).Plan()
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range plan.Scripts {
		want := multics.Unclassified
		if i%2 == 1 {
			want = multics.Secret
		}
		if s.Level != want {
			t.Fatalf("tenant session %d at level %v, want %v", i, s.Level, want)
		}
	}
	// Accounts must be cleared to dominate the highest session level.
	for _, a := range plan.Accounts {
		if a.Clearance != multics.Secret {
			t.Fatalf("tenant account %s cleared at %v, want Secret", a.Person, a.Clearance)
		}
	}
}

func TestScenarioCompileErrors(t *testing.T) {
	cases := map[string]*Scenario{
		"no personas":   NewScenario("bad", 1),
		"zero weight":   NewScenario("bad", 1).Mix(Daemon(), 0),
		"negative mix":  NewScenario("bad", 1).Mix(Daemon(), -2),
		"duplicate":     NewScenario("bad", 1).Mix(Daemon(), 1).Mix(Daemon(), 1),
		"zero sessions": NewScenario("bad", 1).Mix(Daemon(), 1).Sessions(0),
		"negative gap":  NewScenario("bad", 1).Mix(Daemon(), 1).OpenLoop(-1),
		"unnamed":       NewScenario("bad", 1).Mix(Persona{Steps: 4}, 1),
	}
	for name, sc := range cases {
		if _, err := sc.Plan(); err == nil {
			t.Errorf("%s: compiled without error", name)
		}
	}
}

// TestPersonaStepsArePure asserts persona step generation is a pure
// seeded function: independent of call order and of other sessions.
func TestPersonaStepsArePure(t *testing.T) {
	p := InteractiveEditor()
	if err := p.setDefaults(16); err != nil {
		t.Fatal(err)
	}
	a := p.step(75, 3, 5)
	for j := 9; j >= 0; j-- {
		p.step(75, 7, j)
	}
	if b := p.step(75, 3, 5); a != b {
		t.Fatalf("step(75,3,5) = %+v then %+v", a, b)
	}
}
