//go:build !linux && !darwin

package kvstore

// mapBytes falls back to the Go heap where anonymous mmap is not wired up.
// The slabs hold no pointers, so the collector still does not scan them,
// but it counts them.
func mapBytes(n int) ([]byte, error) { return make([]byte, n), nil }

func unmapBytes(b []byte) {}
