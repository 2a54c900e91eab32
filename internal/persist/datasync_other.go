//go:build !linux

package persist

import "os"

// datasync flushes f's data to stable storage; without fdatasync(2) it is a
// full fsync.
func datasync(f *os.File) error { return f.Sync() }
