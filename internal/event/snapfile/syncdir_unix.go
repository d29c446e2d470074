//go:build unix

package snapfile

import "syscall"

// syncDir fsyncs directory dir, so a rename into it survives a crash. It
// goes through syscall rather than os.Open, which costs two more
// allocations per write.
func syncDir(dir string) error {
	fd, err := syscall.Open(dir, syscall.O_RDONLY, 0)
	if err != nil {
		return err
	}
	err = syscall.Fsync(fd)
	if cerr := syscall.Close(fd); err == nil {
		err = cerr
	}
	return err
}
