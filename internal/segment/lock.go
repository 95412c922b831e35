//go:build unix

package segment

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"syscall"
	"time"
)

// ErrLocked means another live process holds a log directory's writer
// lock. A result store opened ReadOnly follows such a directory instead.
var ErrLocked = errors.New("segment: directory is locked by another writer")

// lockInfo is the JSON document the lock holder writes into the lock file
// after winning the flock, so a losing opener can name who beat it. The
// flock itself — not this document — is the authority: a stale document
// left by a kill -9'd holder is harmless because the kernel has already
// released its lock.
type lockInfo struct {
	PID   int    `json:"pid"`
	Owner string `json:"owner,omitempty"`
}

// LockHeldError reports a directory whose writer lock is held by another
// live process. errors.Is(err, ErrLocked) matches it, and it names the
// holder (PID, and owner when the holder declared one).
type LockHeldError struct {
	// Path is the lock file that was contended.
	Path string
	// HolderPID is the lock holder's process ID, 0 when the holder won
	// the flock but had not yet written its identity.
	HolderPID int
	// HolderOwner is the holder's declared owner name, empty when
	// unknown.
	HolderOwner string
}

func (e *LockHeldError) Error() string {
	switch {
	case e.HolderPID == 0:
		return fmt.Sprintf("segment: %s is locked by another writer", e.Path)
	case e.HolderOwner == "":
		return fmt.Sprintf("segment: %s is locked by another writer (pid %d)", e.Path, e.HolderPID)
	default:
		return fmt.Sprintf("segment: %s is locked by another writer (pid %d, owner %s)", e.Path, e.HolderPID, e.HolderOwner)
	}
}

// Is makes errors.Is(err, ErrLocked) match the typed error.
func (e *LockHeldError) Is(target error) bool { return target == ErrLocked }

// AcquireLock takes an exclusive, non-blocking flock on path, creating the
// file if needed, and records the winner's PID and owner in the file so a
// contending opener can name the holder. flock ownership dies with the
// process — including kill -9 — so a crashed writer never wedges the
// directory, unlike an O_EXCL-style lockfile. The restart e2e suites
// depend on this. The result store and the cluster journal take their
// directory's writer lock through it.
func AcquireLock(path, owner string) (*os.File, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("segment: lock file: %w", err)
	}
	if err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		f.Close()
		if err == syscall.EWOULDBLOCK || err == syscall.EAGAIN {
			held := readLockInfo(path)
			return nil, &LockHeldError{Path: path, HolderPID: held.PID, HolderOwner: held.Owner}
		}
		return nil, fmt.Errorf("segment: flock: %w", err)
	}
	// Holding the lock, stamp our identity. Best-effort: losing the race
	// to write it only degrades the loser's error message.
	if data, err := json.Marshal(lockInfo{PID: os.Getpid(), Owner: owner}); err == nil {
		f.Truncate(0)
		f.WriteAt(data, 0)
	}
	return f, nil
}

// readLockInfo reads the holder identity from a contended lock file,
// retrying briefly: a winner that just took the flock may not have written
// its PID yet.
func readLockInfo(path string) lockInfo {
	deadline := time.Now().Add(250 * time.Millisecond)
	for {
		var info lockInfo
		data, err := os.ReadFile(path)
		if err == nil && len(data) > 0 && json.Unmarshal(data, &info) == nil && info.PID != 0 {
			return info
		}
		if time.Now().After(deadline) {
			return lockInfo{}
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// AcquireLockBlocking takes an exclusive flock on path, waiting for the
// current holder to release it. Claims-segment operations use it: they
// hold the lock for microseconds, so waiting beats failing.
func AcquireLockBlocking(path string) (*os.File, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("segment: lock file: %w", err)
	}
	if err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX); err != nil {
		f.Close()
		return nil, fmt.Errorf("segment: flock: %w", err)
	}
	return f, nil
}

// ReleaseLock drops the flock and closes the handle. Best-effort: the
// kernel releases the lock on close anyway.
func ReleaseLock(f *os.File) {
	syscall.Flock(int(f.Fd()), syscall.LOCK_UN)
	f.Close()
}
