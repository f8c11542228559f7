package main

import (
	"runtime/metrics"
	"slices"
	"time"
)

// heapWatch samples the live heap (what the last collection found
// reachable) every few milliseconds from start-up to the result.
type heapWatch struct {
	stop chan struct{}
	done chan []uint64
}

const heapEvery = 5 * time.Millisecond

func watchHeap() *heapWatch {
	h := &heapWatch{stop: make(chan struct{}), done: make(chan []uint64)}
	go func() {
		sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		var live []uint64
		tick := time.NewTicker(heapEvery)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			live = append(live, sample[0].Value.Uint64())
			select {
			case <-tick.C:
			case <-h.stop:
				h.done <- live
				return
			}
		}
	}()
	return h
}

// peakMB stops the sampler and returns the peak live heap in MiB,
// read as the 95th percentile of the samples. A phase that holds the
// heap for a twentieth of the run sets it; request buffers that a
// collection happened to find in flight do not. On service-hot, whose
// live heap is about 3 MB, reads that the host's steal time stalled in
// flight doubled the 99th percentile in some runs and left the 95th
// within a few percent.
func (h *heapWatch) peakMB() float64 {
	close(h.stop)
	live := <-h.done
	slices.Sort(live)
	return float64(live[len(live)*95/100]) / (1 << 20)
}
