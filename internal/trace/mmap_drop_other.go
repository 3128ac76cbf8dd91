//go:build !linux

package trace

// dropMapped is a no-op off Linux, where the standard library has no
// madvise: an idle mapping's pages stay resident until the kernel reclaims
// them or the file is closed.
func dropMapped([]byte) error { return nil }
