package fsapi

import (
	"errors"
	"fmt"
	"io"
	"testing"
)

func TestToErrno(t *testing.T) {
	for _, tc := range []struct {
		name string
		err  error
		want Errno
	}{
		{"nil", nil, EOK},
		{"bare", ENOENT, ENOENT},
		{"wrapped", fmt.Errorf("stat /a: %w", EACCES), EACCES},
		{"wrapped twice", fmt.Errorf("walk: %w", fmt.Errorf("lookup: %w", ENOTDIR)), ENOTDIR},
		{"joined", errors.Join(io.EOF, EBUSY), EBUSY},
		{"foreign", io.EOF, EIO},
		{"foreign wrapped", fmt.Errorf("read: %w", io.ErrUnexpectedEOF), EIO},
	} {
		if got := ToErrno(tc.err); got != tc.want {
			t.Errorf("%s: ToErrno(%v) = %v, want %v", tc.name, tc.err, got, tc.want)
		}
	}
}

func TestErrnoIs(t *testing.T) {
	wrapped := fmt.Errorf("open /a/b: %w", ENOENT)
	if !errors.Is(wrapped, ENOENT) {
		t.Error("a wrapped ENOENT is not ENOENT")
	}
	if errors.Is(wrapped, EACCES) {
		t.Error("a wrapped ENOENT is EACCES")
	}
	if ENOENT.Is(io.EOF) {
		t.Error("ENOENT matched a foreign error")
	}
	if !ENOENT.Is(ENOENT) || ENOENT.Is(ENOTDIR) {
		t.Error("Errno.Is does not compare numbers")
	}
}

func TestErrnoText(t *testing.T) {
	if got := ENOENT.Error(); got != "no such file or directory" {
		t.Errorf("ENOENT reads %q", got)
	}
	for e, want := range map[Errno]string{99: "errno 99", -5: "errno -5"} {
		if got := e.Error(); got != want {
			t.Errorf("an unnamed errno reads %q, want %q", got, want)
		}
	}
}

func TestMkModeRoundTrip(t *testing.T) {
	types := []FileType{TypeRegular, TypeDirectory, TypeSymlink, TypeCharDev, TypeBlockDev, TypeFIFO, TypeSocket}
	perms := []Mode{0, 0o644, 0o755, 0o777, 0o700 | ModeSticky, 0o755 | ModeSetUID | ModeSetGID}
	for _, ft := range types {
		for _, perm := range perms {
			m := MkMode(ft, perm)
			if m.Type() != ft || m.Perm() != perm {
				t.Errorf("MkMode(%v, %o) reads back as (%v, %o)", ft, perm, m.Type(), m.Perm())
			}
			if m.IsDir() != (ft == TypeDirectory) || m.IsRegular() != (ft == TypeRegular) || m.IsSymlink() != (ft == TypeSymlink) {
				t.Errorf("MkMode(%v, %o): IsDir %v IsRegular %v IsSymlink %v", ft, perm, m.IsDir(), m.IsRegular(), m.IsSymlink())
			}
		}
	}
	// Bits outside the permission word never reach the type.
	if m := MkMode(TypeRegular, 0o644|ModeTypeMask); m.Type() != TypeRegular || m.Perm() != 0o644 {
		t.Errorf("type bits passed as permissions leaked: (%v, %o)", m.Type(), m.Perm())
	}
}
