//go:build amd64 || arm64

package cpu

import "unsafe"

// Prefetch hints the cache line holding p into the L1 data cache.
//
//go:noescape
func Prefetch(p unsafe.Pointer)
