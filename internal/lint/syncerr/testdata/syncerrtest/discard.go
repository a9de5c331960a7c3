// Fixture for the syncerr analyzer. The package name ends in a scope
// suffix the test passes to syncerr.New, putting it on the "durable
// write path" for the analyzer's purposes.
package syncerrtest

import (
	"os"

	"adjarray/internal/iofault"
	"adjarray/internal/wal"
)

// flushBad drops the fsync error — the exact failure mode the WAL's
// durability contract forbids.
func flushBad(f *os.File) {
	f.Sync() // want `discarded error from \(os\.File\)\.Sync`
}

// closeDeferred discards through a defer.
func closeDeferred(f *os.File) {
	defer f.Close() // want `discarded by defer error from \(os\.File\)\.Close`
	f.WriteString("x")
}

// blankAssign discards by assigning to blank.
func blankAssign(f *os.File) {
	_ = f.Sync() // want `assigned to blank error from \(os\.File\)\.Sync`
}

// walClose drops a WAL writer close — rotation/final-sync errors vanish.
func walClose(w *wal.Writer) {
	w.Close() // want `discarded error from \(adjarray/internal/wal\.Writer\)\.Close`
}

// faultFileSync drops the fsync of the file the WAL actually writes
// through: an iofault.File, not an *os.File.
func faultFileSync(f iofault.File) {
	f.Sync() // want `discarded error from \(adjarray/internal/iofault\.File\)\.Sync`
}

// faultFileClose discards an iofault.File close through a defer.
func faultFileClose(f iofault.File) {
	defer f.Close() // want `discarded by defer error from \(adjarray/internal/iofault\.File\)\.Close`
	f.Write([]byte("x"))
}

// syncDirBlank drops the directory fsync that makes a rename or a
// creation durable.
func syncDirBlank(fsys iofault.FS, dir string) {
	_ = fsys.SyncDir(dir) // want `assigned to blank error from \(adjarray/internal/iofault\.FS\)\.SyncDir`
}

// syncDirGood checks it: no finding.
func syncDirGood(fsys iofault.FS, dir string) error {
	return fsys.SyncDir(dir)
}

// flushGood is the checked-fsync pattern from internal/wal/writer.go
// verbatim: no finding.
func flushGood(f *os.File) error {
	if err := f.Sync(); err != nil {
		return err
	}
	return f.Close()
}

// walSyncGood checks the WAL sync: no finding.
func walSyncGood(w *wal.Writer) error {
	if err := w.Sync(); err != nil {
		return err
	}
	return nil
}

// cleanupAnnotated is a sanctioned discard on an error path, carrying
// the required annotation: suppressed, no finding.
func cleanupAnnotated(f *os.File, failed error) error {
	if failed != nil {
		f.Close() //adjlint:ignore syncerr error-path cleanup; failed is the error returned
		return failed
	}
	return f.Close()
}

// writeDiscard drops a non-durability method: out of the analyzer's
// scope, no finding.
func writeDiscard(f *os.File) {
	f.WriteString("not a durability call")
}
