//go:build unix

package store

import (
	"fmt"
	"os"
	"syscall"
)

// flockHeld runs fn while holding a file lock on f: exclusive for writers
// (appends, compaction, opening), shared for readers scanning a
// tail. A nil f (read-only open of a bare copied directory, which nothing
// else can be writing) runs fn lock-free. Callers serialise their own use
// of one descriptor (the segment mutex) so its flock state is never
// manipulated by two goroutines at once; distinct handles, in this or any
// other process, contend through the kernel.
func flockHeld(f *os.File, name string, exclusive bool, fn func() error) error {
	if f == nil {
		return fn()
	}
	how := syscall.LOCK_SH
	if exclusive {
		how = syscall.LOCK_EX
	}
	if err := flockRetry(int(f.Fd()), how); err != nil {
		return fmt.Errorf("store: lock %s: %w", name, err)
	}
	defer flockRetry(int(f.Fd()), syscall.LOCK_UN)
	return fn()
}

// flockRetry issues flock, retrying on EINTR.
func flockRetry(fd, how int) error {
	for {
		err := syscall.Flock(fd, how)
		if err != syscall.EINTR {
			return err
		}
	}
}
