//go:build linux || darwin

package kvstore

import "syscall"

// mapBytes returns n zeroed bytes of anonymous memory outside the Go heap:
// the garbage collector neither scans nor counts them. Release them with
// unmapBytes.
func mapBytes(n int) ([]byte, error) {
	return syscall.Mmap(-1, 0, n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
}

func unmapBytes(b []byte) {
	_ = syscall.Munmap(b) // fails only for a slice mapBytes did not return
}
