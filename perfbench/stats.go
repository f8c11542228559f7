package main

import (
	"math"
	"slices"
	"sync"
	"time"
)

// tailBeyond is the tail rule: the reported tail is the highest
// percentile that still has this many samples above it.
const tailBeyond = 10

// latencies summarises one set of timings.
type latencies struct {
	n       int
	p50     float64 // milliseconds
	tail    float64 // milliseconds, at tailPct
	tailPct float64 // percentile the tail was read at
}

// summarize sorts a copy of the durations and applies the median and
// tail rules. With fewer than tailBeyond+1 samples the tail is the
// maximum.
func summarize(ds []time.Duration) latencies {
	ms := msList(ds)
	slices.Sort(ms)
	l := latencies{n: len(ms)}
	if l.n == 0 {
		return l
	}
	l.p50 = median(ms)
	if l.n > tailBeyond {
		l.tail = ms[l.n-tailBeyond-1]
		l.tailPct = 100 * float64(l.n-tailBeyond) / float64(l.n)
	} else {
		l.tail = ms[l.n-1]
		l.tailPct = 100
	}
	return l
}

// quantile q of the values, in any order, interpolated linearly between
// the two nearest ranks (0 when there are none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (s[lo+1]-s[lo])*(pos-float64(lo))
}

// median of the values, in any order: the middle one, or the mean of
// the two middle ones (0 when there are none).
func median[T ~int64 | ~float64](xs []T) T {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// geomean of positive ratios.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var logs float64
	for _, x := range xs {
		logs += math.Log(x)
	}
	return math.Exp(logs / float64(len(xs)))
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// msList converts durations to milliseconds.
func msList(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// tally counts attempted and failed operations. Every failure is a
// correctness violation: the workloads are chosen so that no
// operation fails on a healthy build.
type tally struct {
	mu        sync.Mutex
	attempted int
	failed    int
	notes     []string
}

func (t *tally) attempt(n int) {
	t.mu.Lock()
	t.attempted += n
	t.mu.Unlock()
}

// fail records one failed operation; the first few reasons are kept
// for the report on standard error.
func (t *tally) fail(reason string) {
	t.mu.Lock()
	t.failed++
	if len(t.notes) < 20 {
		t.notes = append(t.notes, reason)
	}
	t.mu.Unlock()
}
