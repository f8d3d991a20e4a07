package lsm

import (
	"errors"
	"sync"
	"testing"

	"dircache/internal/cred"
	"dircache/internal/fsapi"
)

func TestEmptyStackAllows(t *testing.T) {
	var s Stack
	if !s.Empty() {
		t.Fatal("zero stack not empty")
	}
	c := cred.New(1, 1, nil, "")
	if err := s.Check(c, InodeView{}, MayRead|MayWrite|MayExec); err != nil {
		t.Fatal(err)
	}
}

func TestDenyWins(t *testing.T) {
	var s Stack
	p := NewLabelPolicy()
	s.Register(p)
	s.Register(OwnerOnly{})
	if got := s.Names(); len(got) != 2 || got[0] != "labels" || got[1] != "owneronly" {
		t.Fatalf("names %v", got)
	}
	confined := cred.New(1000, 1000, nil, "webapp")
	obj := InodeView{UID: 2000, Label: "secret"}
	// labels denies (no allow rule) even though owneronly would allow reads.
	if err := s.Check(confined, obj, MayRead); !errors.Is(err, fsapi.EACCES) {
		t.Fatalf("expected EACCES, got %v", err)
	}
}

func TestLabelPolicyMatrix(t *testing.T) {
	p := NewLabelPolicy()
	p.Allow("webapp", "webdata", MayRead|MayExec)
	webapp := cred.New(1000, 1000, nil, "webapp")
	other := cred.New(1000, 1000, nil, "batch")
	unconfined := cred.New(1000, 1000, nil, "")

	obj := InodeView{Label: "webdata"}
	if err := p.InodePermission(webapp, obj, MayRead); err != nil {
		t.Fatalf("granted read denied: %v", err)
	}
	if err := p.InodePermission(webapp, obj, MayExec); err != nil {
		t.Fatalf("granted exec denied: %v", err)
	}
	if err := p.InodePermission(webapp, obj, MayWrite); !errors.Is(err, fsapi.EACCES) {
		t.Fatalf("ungranted write allowed: %v", err)
	}
	if err := p.InodePermission(webapp, obj, MayRead|MayWrite); !errors.Is(err, fsapi.EACCES) {
		t.Fatal("combined mask must require all bits")
	}
	if err := p.InodePermission(other, obj, MayRead); !errors.Is(err, fsapi.EACCES) {
		t.Fatal("different subject allowed")
	}
	if err := p.InodePermission(unconfined, obj, MayWrite); err != nil {
		t.Fatalf("unconfined subject denied: %v", err)
	}
}

func TestLabelPolicyUnlabeledObjects(t *testing.T) {
	p := NewLabelPolicy()
	confined := cred.New(1, 1, nil, "domain")
	if err := p.InodePermission(confined, InodeView{}, MayRead); err != nil {
		t.Fatalf("default mask should allow: %v", err)
	}
	p.DefaultMask = MayRead
	if err := p.InodePermission(confined, InodeView{}, MayWrite); !errors.Is(err, fsapi.EACCES) {
		t.Fatal("restricted default mask ignored")
	}
}

func TestOwnerOnly(t *testing.T) {
	m := OwnerOnly{}
	confined := cred.New(1000, 1000, nil, "jail")
	mine := InodeView{UID: 1000}
	theirs := InodeView{UID: 2000}
	if err := m.InodePermission(confined, mine, MayWrite); err != nil {
		t.Fatalf("own file write denied: %v", err)
	}
	if err := m.InodePermission(confined, theirs, MayWrite); !errors.Is(err, fsapi.EACCES) {
		t.Fatal("foreign write allowed")
	}
	if err := m.InodePermission(confined, theirs, MayRead); err != nil {
		t.Fatalf("read should pass: %v", err)
	}
	root := cred.New(0, 0, nil, "jail")
	if err := m.InodePermission(root, theirs, MayWrite); err != nil {
		t.Fatalf("root denied: %v", err)
	}
}

func TestPathACL(t *testing.T) {
	p := NewPathACL()
	p.Allow("web", "/srv/www", MayRead)
	p.Allow("web", "/var/log/web", MayRead|MayWrite)
	var s Stack
	s.Register(p)

	web := cred.New(33, 33, nil, "web")
	other := cred.New(33, 33, nil, "batch")
	unconfined := cred.New(33, 33, nil, "")

	cases := []struct {
		c    *cred.Cred
		path string
		mask Mask
		ok   bool
	}{
		{web, "/srv/www/index.html", MayRead, true},
		{web, "/srv/www", MayRead, true},
		{web, "/srv/wwwroot/x", MayRead, false},
		{web, "/srv/www/index.html", MayWrite, false},
		{web, "/var/log/web/access.log", MayWrite, true},
		{web, "/etc/passwd", MayRead, false},
		{other, "/etc/passwd", MayRead, true},       // no profile: unconfined
		{unconfined, "/etc/passwd", MayWrite, true}, // empty label
	}
	for _, tc := range cases {
		err := s.CheckPath(tc.c, tc.path, tc.mask)
		if tc.ok && err != nil {
			t.Errorf("CheckPath(%s,%s,%v) denied: %v", tc.c.Security, tc.path, tc.mask, err)
		}
		if !tc.ok && !errors.Is(err, fsapi.EACCES) {
			t.Errorf("CheckPath(%s,%s,%v) allowed", tc.c.Security, tc.path, tc.mask)
		}
	}
	// InodePermission is a pass-through.
	if err := p.InodePermission(web, InodeView{}, MayWrite); err != nil {
		t.Fatal(err)
	}
}

// TestRegisterRacesCheck: Check and Empty read the module list with one
// load while Register publishes a copy, so a checker sees a whole list —
// never a torn one — and, once Register has returned, the new module.
func TestRegisterRacesCheck(t *testing.T) {
	var s Stack
	if !s.Empty() {
		t.Fatal("zero Stack is not empty")
	}
	owner := cred.New(7, 7, nil, "confined")
	view := InodeView{UID: 8}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				// Allowed until OwnerOnly lands, EACCES after: nothing else.
				if err := s.Check(owner, view, MayWrite); err != nil && !errors.Is(err, fsapi.EACCES) {
					t.Errorf("Check: %v", err)
					return
				}
				_ = s.Empty()
			}
		}()
	}
	for i := 0; i < 64; i++ {
		s.Register(NewLabelPolicy())
	}
	s.Register(OwnerOnly{})
	if err := s.Check(owner, view, MayWrite); !errors.Is(err, fsapi.EACCES) {
		t.Fatalf("Check after Register(OwnerOnly) = %v, want EACCES", err)
	}
	close(stop)
	wg.Wait()
	if got := len(s.Names()); got != 65 {
		t.Fatalf("%d modules registered, want 65", got)
	}
}
