package main

import (
	"runtime/metrics"
	"time"
)

// liveHeapMetric is the heap the last garbage collection found live.
// Reading it through runtime/metrics does not stop the world, unlike
// runtime.ReadMemStats, so sampling it every few milliseconds adds no
// pauses to the requests being measured. The request and response bodies
// the benchmark holds live outside the heap (arena.go), so this is the
// service's own heap plus the fixture.
const liveHeapMetric = "/gc/heap/live:bytes"

func liveHeap() uint64 {
	s := []metrics.Sample{{Name: liveHeapMetric}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// heapPeak samples the live heap every 2 ms until stopped.
type heapPeak struct {
	quit chan struct{}
	done chan uint64
}

func startHeapPeak() *heapPeak {
	h := &heapPeak{quit: make(chan struct{}), done: make(chan uint64, 1)}
	go func() {
		t := time.NewTicker(2 * time.Millisecond)
		defer t.Stop()
		var peak uint64
		for {
			peak = max(peak, liveHeap())
			select {
			case <-h.quit:
				h.done <- max(peak, liveHeap())
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// stop ends sampling and returns the highest live heap seen.
func (h *heapPeak) stop() uint64 {
	close(h.quit)
	return <-h.done
}
