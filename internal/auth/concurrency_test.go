package auth

import (
	"errors"
	"sync"
	"testing"

	"repro/internal/acl"
	"repro/internal/mls"
)

// Many goroutines log the same user in at once; every attempt must succeed
// and the counters must account for each exactly once.
func TestLoginConcurrent(t *testing.T) {
	r := NewRegistry()
	const users = 16
	names := make([]string, users)
	for i := range names {
		names[i] = "User" + string(rune('A'+i))
		if err := r.AddUser(names[i], "Proj", "password"+names[i], mls.NewLabel(mls.Secret)); err != nil {
			t.Fatal(err)
		}
	}
	var created int64
	var cmu sync.Mutex
	svc := NewService(Subsystem, r, func(s Session) error {
		cmu.Lock()
		created++
		cmu.Unlock()
		return nil
	})
	const perUser = 32
	var wg sync.WaitGroup
	errs := make(chan error, users*perUser)
	for _, name := range names {
		for i := 0; i < perUser; i++ {
			wg.Add(1)
			go func(name string) {
				defer wg.Done()
				sess, err := svc.Login(name, "Proj", "password"+name, mls.NewLabel(mls.Unclassified))
				if err != nil {
					errs <- err
					return
				}
				if sess.Principal.Person != name {
					errs <- errors.New("wrong principal " + sess.Principal.Person)
				}
			}(name)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got := svc.LoginCount(); got != users*perUser {
		t.Errorf("logins = %d, want %d", got, users*perUser)
	}
	if got := svc.FailureCount(); got != 0 {
		t.Errorf("failures = %d, want 0", got)
	}
	cmu.Lock()
	defer cmu.Unlock()
	if created != users*perUser {
		t.Errorf("create-process gate called %d times, want %d", created, users*perUser)
	}
}

// Wrong-password storms from many goroutines must produce an exact failure
// count and trip the lockout exactly at MaxFailures.
func TestConcurrentFailureLockout(t *testing.T) {
	r := reg(t)
	const attempts = 64
	var wg sync.WaitGroup
	results := make(chan error, attempts)
	for i := 0; i < attempts; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results <- r.Authenticate("Schroeder", "wrong-password")
		}()
	}
	wg.Wait()
	close(results)
	var bad, disabled int
	for err := range results {
		switch {
		case errors.Is(err, ErrBadPassword):
			bad++
		case errors.Is(err, ErrAccountDisabled):
			disabled++
		default:
			t.Errorf("unexpected result: %v", err)
		}
	}
	if bad != MaxFailures {
		t.Errorf("bad-password results = %d, want exactly %d before lockout", bad, MaxFailures)
	}
	if bad+disabled != attempts {
		t.Errorf("accounted %d attempts, want %d", bad+disabled, attempts)
	}
	if err := r.Authenticate("Schroeder", "multics75"); !errors.Is(err, ErrAccountDisabled) {
		t.Errorf("correct password after lockout = %v, want disabled", err)
	}
}

// A password change racing a storm of logins. A pair of logins (old
// password, then new) is judged only when no change began or ended
// around it: then the current password must work and the stale one must
// fail. A pair that straddles a change may legitimately see neither.
// Each change waits for a pair judged since the previous one, so the
// storm judges at least one pair per change.
func TestChangePasswordRacingLogin(t *testing.T) {
	const changes = 50
	r := NewRegistry()
	if err := r.AddUser("Racer", "Proj", "old-password", mls.NewLabel(mls.Secret)); err != nil {
		t.Fatal(err)
	}
	svc := NewService(Subsystem, r, nil)
	// bumps counts change edges: it is odd while a ChangePassword is in
	// flight, and bumps/2 changes have completed otherwise.
	var (
		mu     sync.Mutex
		judged = sync.NewCond(&mu)
		bumps  int
		pairs  int
		failed bool
	)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			mu.Lock()
			before := bumps
			mu.Unlock()
			_, errOld := svc.Login("Racer", "Proj", "old-password", mls.NewLabel(mls.Unclassified))
			_, errNew := svc.Login("Racer", "Proj", "new-password", mls.NewLabel(mls.Unclassified))
			mu.Lock()
			if bumps == before && before%2 == 0 {
				current, stale := errOld, errNew
				if before/2%2 == 1 {
					current, stale = errNew, errOld
				}
				if !failed && (current != nil || !errors.Is(stale, ErrBadPassword)) {
					failed = true
					t.Errorf("after %d changes: current password = %v, stale password = %v (want nil, ErrBadPassword)",
						before/2, current, stale)
				}
				pairs++
				judged.Broadcast()
			}
			mu.Unlock()
		}
	}()
	defer func() {
		close(stop)
		wg.Wait()
	}()
	// The failed Authenticate inside ChangePassword with the stale
	// password would bump the failure counter, so the alternation below
	// always authenticates with the current one.
	cur, next := "old-password", "new-password"
	seen := 0
	for i := 0; i < changes; i++ {
		mu.Lock()
		for pairs == seen {
			judged.Wait()
		}
		bumps++
		mu.Unlock()
		err := r.ChangePassword("Racer", cur, next)
		mu.Lock()
		bumps++
		seen = pairs
		mu.Unlock()
		if err != nil {
			t.Fatalf("change %d: %v", i, err)
		}
		cur, next = next, cur
	}
	mu.Lock()
	judgedPairs := pairs
	mu.Unlock()
	if judgedPairs < changes {
		t.Errorf("judged %d login pairs, want at least %d", judgedPairs, changes)
	}
	// After the loop cur holds whichever password the last change installed.
	if err := r.Authenticate("Racer", cur); err != nil {
		t.Errorf("final password rejected: %v", err)
	}
	if err := r.Authenticate("Racer", next); !errors.Is(err, ErrBadPassword) {
		t.Errorf("stale password = %v, want ErrBadPassword", err)
	}
}

// AddProject racing logins on the new project must never corrupt the
// registry; once AddProject returns, logins on that project succeed.
func TestAddProjectConcurrent(t *testing.T) {
	r := reg(t)
	svc := NewService(Privileged, r, nil)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				_, err := svc.Login("Schroeder", "NewProj", "multics75", mls.NewLabel(mls.Unclassified))
				if err != nil && !errors.Is(err, ErrWrongProject) {
					t.Errorf("login: %v", err)
				}
			}
		}()
	}
	if err := r.AddProject("Schroeder", "NewProj"); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	sess, err := svc.Login("Schroeder", "NewProj", "multics75", mls.NewLabel(mls.Unclassified))
	if err != nil {
		t.Fatal(err)
	}
	want := acl.Principal{Person: "Schroeder", Project: "NewProj", Tag: "a"}
	if sess.Principal != want {
		t.Errorf("principal = %v, want %v", sess.Principal, want)
	}
}
