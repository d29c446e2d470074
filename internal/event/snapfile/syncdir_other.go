//go:build !unix

package snapfile

// syncDir is a no-op where a directory cannot be opened for fsync (Windows
// refuses to flush a directory handle).
func syncDir(string) error { return nil }
