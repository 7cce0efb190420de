package main

import (
	"sync"
	"syscall"
)

// arena is memory outside the Go heap, for the bytes the benchmark
// itself holds: the pre-encoded request bodies and the response bodies
// kept for the checks. Keeping them off the heap leaves the garbage
// collector pacing on the service's own live heap, as in roadpartd, and
// keeps them out of peak_heap_mb. The mapping lives until the process
// exits; untouched pages cost nothing.
type arena struct {
	mu  sync.Mutex
	mem []byte
	off int
}

// arenaBytes is the address space each arena reserves.
const arenaBytes = 4 << 30

func newArena() (*arena, error) {
	mem, err := syscall.Mmap(-1, 0, arenaBytes, syscall.PROT_READ|syscall.PROT_WRITE,
		syscall.MAP_PRIVATE|syscall.MAP_ANON|syscall.MAP_NORESERVE)
	if err != nil {
		return nil, err
	}
	return &arena{mem: mem}, nil
}

// copy returns b copied into the arena, or b itself once the arena is
// full.
func (a *arena) copy(b []byte) []byte {
	a.mu.Lock()
	defer a.mu.Unlock()
	if len(b) > len(a.mem)-a.off {
		return b
	}
	dst := a.mem[a.off : a.off+len(b) : a.off+len(b)]
	copy(dst, b)
	a.off += len(b)
	return dst
}
