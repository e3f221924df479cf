//go:build !unix

package dataset

import (
	"errors"
	"os"
)

// mmapSupported says whether mmapFile can succeed on this platform;
// without it Open2 reads the artifact onto the heap.
const mmapSupported = false

var errMmapUnsupported = errors.New("dataset: mmap not supported on this platform")

func mmapFile(*os.File, int64) ([]byte, error) { return nil, errMmapUnsupported }

func munmapFile([]byte) error { return nil }
