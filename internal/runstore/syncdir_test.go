package runstore

import (
	"errors"
	"io/fs"
	"path/filepath"
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
