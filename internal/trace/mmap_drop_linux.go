package trace

import "syscall"

// dropMapped releases a read-only file mapping's pages from the process's
// resident set. The page cache keeps them, so the next access faults them
// back in without I/O and reads the same bytes.
func dropMapped(data []byte) error { return syscall.Madvise(data, syscall.MADV_DONTNEED) }
