//go:build !unix

package store

import (
	"os"
	"sync"
)

// lockMus serialises access per lock file within this process on platforms
// without flock. Cross-process sharing of one directory is not coordinated
// here: the record checksums still prevent a torn append from being served
// — at worst the tail is truncated at the next open — but concurrent
// processes should use distinct directories.
var lockMus sync.Map // lock-file path -> *sync.Mutex

// flockHeld on platforms without flock degrades to in-process, per-lock-file
// serialisation: any number of handles on one directory within this process
// remain fully coordinated (the lock file maps to one mutex); exclusive
// and shared acquisitions collapse together, which is fine at the store's
// call rates.
func flockHeld(f *os.File, name string, exclusive bool, fn func() error) error {
	if f == nil {
		return fn()
	}
	v, _ := lockMus.LoadOrStore(name, &sync.Mutex{})
	mu := v.(*sync.Mutex)
	mu.Lock()
	defer mu.Unlock()
	return fn()
}
