package persist

import (
	"os"
	"syscall"
)

// datasync flushes f's data, and its size if that changed, to stable
// storage — fdatasync(2), which unlike fsync does not wait for the other
// inode metadata (timestamps) to reach the journal.
func datasync(f *os.File) error {
	rc, err := f.SyscallConn()
	if err != nil {
		return err
	}
	if cerr := rc.Control(func(fd uintptr) {
		for {
			if err = syscall.Fdatasync(int(fd)); err != syscall.EINTR {
				return
			}
		}
	}); cerr != nil {
		return cerr
	}
	if err != nil {
		return &os.PathError{Op: "fdatasync", Path: f.Name(), Err: err}
	}
	return nil
}
