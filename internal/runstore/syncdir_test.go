package runstore

import (
	"errors"
	"io/fs"
	"path/filepath"
	"slices"
	"testing"
)

// TestSyncDirReportsErrors pins that a directory fsync that cannot run
// fails the write instead of reporting success.
func TestSyncDirReportsErrors(t *testing.T) {
	dir := t.TempDir()
	if err := syncDir(dir); err != nil {
		t.Fatalf("syncDir on an existing directory: %v", err)
	}
	err := syncDir(filepath.Join(dir, "missing"))
	if !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("syncDir on a missing directory: %v, want an fs.ErrNotExist error", err)
	}
}

// TestMissingDirs: the directories Create must sync into their parents
// are exactly those MkdirAll is about to create, deepest first.
func TestMissingDirs(t *testing.T) {
	base := t.TempDir()
	dir := filepath.Join(base, "a", "b")
	want := []string{dir, filepath.Join(base, "a")}
	if got := missingDirs(dir); !slices.Equal(got, want) {
		t.Errorf("missingDirs(%s) = %v, want %v", dir, got, want)
	}
	if got := missingDirs(base); len(got) != 0 {
		t.Errorf("missingDirs of an existing directory = %v, want none", got)
	}
}
