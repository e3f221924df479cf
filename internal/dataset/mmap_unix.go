//go:build unix

package dataset

import (
	"os"
	"syscall"
)

// mmapSupported says whether mmapFile can succeed on this platform;
// without it Open2 reads the artifact onto the heap.
const mmapSupported = true

// mmapFile maps size bytes of f read-only and shared. The mapping
// outlives the descriptor, so callers may close f immediately after.
func mmapFile(f *os.File, size int64) ([]byte, error) {
	if size <= 0 || int64(int(size)) != size {
		return nil, syscall.EINVAL
	}
	return syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_SHARED)
}

// munmapFile releases a mapping produced by mmapFile.
func munmapFile(data []byte) error { return syscall.Munmap(data) }
