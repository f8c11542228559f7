package main

import (
	"runtime"
	"testing"
	"time"
)

func TestSummarizeTailRule(t *testing.T) {
	ds := make([]time.Duration, 100)
	for i := range ds {
		ds[i] = time.Duration(i+1) * time.Millisecond // 1..100 ms
	}
	l := summarize(ds)
	// Ten samples (91..100 ms) lie above the tail, which is read at p90.
	if l.tail != 90 || l.tailPct != 90 || l.n != 100 {
		t.Fatalf("tail %v at p%v over %d, want 90 ms at p90 over 100", l.tail, l.tailPct, l.n)
	}
	if l.p50 != 50.5 {
		t.Fatalf("p50 %v, want 50.5", l.p50)
	}
	if small := summarize(ds[:5]); small.tail != 5 || small.tailPct != 100 {
		t.Fatalf("with too few samples the tail is the maximum, got %v at p%v", small.tail, small.tailPct)
	}
}

func TestQuantileInterpolates(t *testing.T) {
	xs := []float64{40, 10, 30, 20}
	for _, c := range []struct{ q, want float64 }{{0, 10}, {0.5, 25}, {0.75, 32.5}, {1, 40}} {
		if got := quantile(xs, c.q); got != c.want {
			t.Fatalf("quantile %v of 10, 20, 30, 40 is %v, want %v", c.q, got, c.want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Fatalf("quantile of nothing is %v, want 0", got)
	}
}

func TestFinalizeParentsAndSelfTime(t *testing.T) {
	r := newRecorder()
	add := func(name string, req, start, end int64) {
		r.spans = append(r.spans, span{Name: name, Req: req, Start: start, End: end})
	}
	add("child-a", 1, 10, 20)
	add("root", 1, 0, 100)
	add("grandchild", 1, 12, 15)
	add("child-b", 1, 15, 40) // overlaps child-a: union covers 10..40
	add("other", 2, 5, 50)    // another request is never a parent
	sp := r.finalize()
	byName := map[string]span{}
	for _, s := range sp {
		byName[s.Name] = s
	}
	parent := func(name string) string {
		if p := byName[name].Parent; p >= 0 {
			return sp[p].Name
		}
		return ""
	}
	if parent("child-a") != "root" || parent("grandchild") != "child-a" || parent("root") != "" || parent("other") != "" {
		t.Fatalf("parents: child-a→%q grandchild→%q root→%q other→%q",
			parent("child-a"), parent("grandchild"), parent("root"), parent("other"))
	}
	if self := byName["root"].Self; self != 70 {
		t.Fatalf("root self time %d, want 70 (100 minus the 10..40 its children cover)", self)
	}
	if self := byName["child-a"].Self; self != 7 {
		t.Fatalf("child-a self time %d, want 7", self)
	}
}

func TestOffRecorderRecordsNothing(t *testing.T) {
	var none *recorder
	none.begin("x").end()
	r := newRecorder()
	r.begin("x").end()
	if len(r.spans) != 0 {
		t.Fatalf("a recorder that is off recorded %d spans", len(r.spans))
	}
	r.on.Store(true)
	r.begin("x").endAs("y")
	if len(r.spans) != 1 || r.spans[0].Name != "y" {
		t.Fatalf("got %+v, want one span named y", r.spans)
	}
}

func TestMedianOddEvenAndDurations(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Fatalf("median of 3, 1, 2 is %v, want 2", m)
	}
	if m := median([]time.Duration{4, 1, 3, 2}); m != 2 {
		t.Fatalf("median of 4, 1, 3, 2 ns is %v, want 2ns (the mean of 2 and 3, truncated)", m)
	}
	if m := median([]float64(nil)); m != 0 {
		t.Fatalf("median of nothing is %v, want 0", m)
	}
}

func TestThreadCPUCountsWorkNotSleep(t *testing.T) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	c0, w0 := threadCPU(), time.Now()
	for time.Since(w0) < 20*time.Millisecond {
	}
	busy := threadCPU() - c0
	if busy <= 0 || busy > time.Since(w0) {
		t.Fatalf("20 ms of spinning took %v of thread CPU time", busy)
	}
	c1 := threadCPU()
	time.Sleep(20 * time.Millisecond)
	if slept := threadCPU() - c1; slept > 5*time.Millisecond {
		t.Fatalf("20 ms of sleep took %v of thread CPU time", slept)
	}
}
